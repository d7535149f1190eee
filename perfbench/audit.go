package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/simstar"
)

// auditStride and auditMax pick the deterministic audit sample: ops whose
// index is a multiple of auditStride, up to auditMax of them.
const (
	auditStride = 37
	auditMax    = 24
)

func auditSampled(i int) bool { return i%auditStride == 0 && i/auditStride < auditMax }

// auditor compares served answers with an in-process engine on the same
// graph. Exact answers must match bit for bit (encoding/json writes the
// shortest float64 text that parses back to the same bits); certified ones
// must lie within their maxError of the exact answer.
type auditor struct {
	ref *simstar.Engine
	ctx context.Context
}

func newAuditor(g *simstar.Graph) *auditor {
	return &auditor{ref: simstar.NewEngine(g, simstar.WithCacheSize(-1)), ctx: context.Background()}
}

// check audits one sampled response body against op o.
func (a *auditor) check(o op, body []byte) error {
	switch o.kind {
	case opSingle:
		var v singleWire
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		return a.scores(o.measure, o.node, v.Scores)
	case opTopK:
		var v topKWire
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		return a.topk(o.measure, o.node, v.Top)
	case opStream:
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		top := make([]rankedWire, 0, topK)
		for _, l := range lines[1 : len(lines)-1] {
			var e rankedWire
			if err := json.Unmarshal(l, &e); err != nil {
				return err
			}
			top = append(top, e)
		}
		return a.topk(o.measure, o.node, top)
	case opBatch:
		var v batchWire
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		for j, s := range o.batch {
			if err := a.topk(s.Measure, s.Node, v.Results[j].Top); err != nil {
				return fmt.Errorf("slot %d: %w", j, err)
			}
		}
		return nil
	case opCert:
		var v topKWire
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		exact, err := a.ref.SingleSource(a.ctx, o.measure, o.node)
		if err != nil {
			return err
		}
		for _, e := range v.Top {
			if d := math.Abs(e.Score - exact[e.Node]); !(d <= v.MaxError) {
				return fmt.Errorf("%s node %d: entry %d off by %g, certificate %g", o.measure, o.node, e.Node, d, v.MaxError)
			}
		}
		return nil
	}
	return nil
}

func (a *auditor) scores(measure string, node int, got []float64) error {
	want, err := a.ref.SingleSource(a.ctx, measure, node)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s node %d: %d scores, want %d", measure, node, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s node %d: score[%d] = %v, want %v", measure, node, i, got[i], want[i])
		}
	}
	return nil
}

func (a *auditor) topk(measure string, node int, got []rankedWire) error {
	want, err := a.ref.TopK(a.ctx, measure, node, topK)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s node %d: %d entries, want %d", measure, node, len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("%s node %d: rank %d = (%d, %v), want (%d, %v)",
				measure, node, i, got[i].Node, got[i].Score, want[i].Node, want[i].Score)
		}
	}
	return nil
}

// finalQueries is the fixed query set churn-closed answers after its writer
// stops: every read measure on the first few sources of the timed stream.
func finalQueries(reads []op) []op {
	var out []op
	for _, o := range reads[:min(len(reads), 3)] {
		for _, m := range readMeasures {
			out = append(out, op{kind: opSingle, measure: m, node: o.node})
		}
	}
	return out
}
