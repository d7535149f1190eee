package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rwr"
	"repro/internal/sparse"
	"repro/simstar"
)

// span is one timed interval of the traced run. Spans of one request share
// req (the op index; -1 for direct layer calls), and parent links a child
// to the span that caused it (-1 for roots). Times are nanoseconds from
// the start of the run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Phase  string `json:"phase"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	t0    time.Time
	phase string
	spans []span
}

func (t *tracer) add(parent, req int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Phase: t.phase, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// addChildren lays stage durations end to end from the parent's start:
// the stages of one obs.Trace run in sequence, and the trace records only
// their lengths.
func (t *tracer) addChildren(parent, req int, prefix string, stages []obs.Span) {
	p := t.spans[parent]
	at := t.t0.Add(time.Duration(p.Start))
	for _, s := range stages {
		d := time.Duration(s.DurationUs * 1e3)
		t.add(parent, req, prefix+s.Stage, at, at.Add(d))
		at = at.Add(d)
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func (t *tracer) selfTimes(phase string) map[string][]time.Duration {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range t.spans {
		if s.Phase == phase {
			out[s.Name] = append(out[s.Name], s.dur()-covered[s.ID])
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// recordHTTP turns phase-1 client records into spans: one per request
// from send to last byte, a time-to-first-byte and a body child, and the
// server's own stage spans (batch and stream requests) under the
// first-byte span.
func (t *tracer) recordHTTP(start time.Time, recs []rec) {
	t.phase = "http"
	for _, r := range recs {
		root := t.add(-1, r.op, "http."+r.kind.String(), start.Add(r.sent), start.Add(r.end))
		if r.first == 0 {
			continue
		}
		ttfb := t.add(root, r.op, "simserve.ttfb", start.Add(r.sent), start.Add(r.first))
		t.add(root, r.op, "simserve.body", start.Add(r.first), start.Add(r.end))
		if len(r.spans) > 0 {
			stages := make([]obs.Span, len(r.spans))
			for i, s := range r.spans {
				stages[i] = obs.Span{Stage: s.Stage, DurationUs: s.DurationUs}
			}
			t.addChildren(ttfb, r.op, "server.", stages)
		}
	}
}

// replayEntry is pass A of the in-process replay: the op stream against a
// fresh engine with simserve's default options plus an observer, through
// the entry points the server calls. Each call is one span; BatchTopKTrace
// plans and ApplyEdits refresh times are collected on the side. It stops
// after budget.
func (t *tracer) replayEntry(g *simstar.Graph, prime []op, ops []idOp, budget time.Duration) (blocked, groups int, refresh []time.Duration, n int) {
	t.phase = "engine"
	eng := primedEngine(g, prime)
	ctx := context.Background()
	stop := time.Now().Add(budget)
	for _, io := range ops {
		i, o := io.id, io.op
		if time.Now().After(stop) {
			break
		}
		n++
		var tr obs.Trace
		s := time.Now()
		var name string
		switch o.kind {
		case opSingle:
			name = "simstar.MultiSourceTrace"
			eng.MultiSourceTrace(ctx, []simstar.Query{{Measure: o.measure, Node: o.node}}, &tr)
		case opTopK, opCert:
			name = "simstar.BatchTopKTrace"
			eng.BatchTopKTrace(ctx, engineQueries(o), &tr)
		case opBatch:
			name = "simstar.BatchTopKTrace"
			eng.BatchTopKTrace(ctx, engineQueries(o), &tr)
			for _, note := range strings.Split(tr.Plan, "; ") {
				if note != "" {
					groups++
					if strings.HasPrefix(note, "blocked") {
						blocked++
					}
				}
			}
		case opStream:
			name = "simstar.TopKStream"
			if st, err := eng.TopKStream(ctx, o.measure, o.node, topK); err == nil {
				for _, ok := st.Next(); ok; _, ok = st.Next() {
				}
			}
		case opEdit:
			name = "simstar.ApplyEdits"
			if es, err := eng.ApplyEdits(editsOf(o)...); err == nil {
				refresh = append(refresh, es.RefreshTime)
			}
		}
		t.add(-1, i, name, s, time.Now())
	}
	return blocked, groups, refresh, n
}

// replayStages is pass B: the same op prefix against another fresh engine
// through the staged-trace entry points, TraceSingleSource and TraceTopK,
// whose obs.Trace stages (plan, cache, kernel, select) become child spans.
// The batch entry points record only their plan, so this pass is what
// splits engine time by stage; batch slots and streams run as one TraceTopK
// each. Edits are applied untraced so later reads see the same epochs.
func (t *tracer) replayStages(g *simstar.Graph, prime []op, ops []idOp) {
	t.phase = "stages"
	eng := primedEngine(g, prime)
	cert := eng.With(simstar.WithTolerance(certTolerance))
	ctx := context.Background()
	for _, io := range ops {
		i, o := io.id, io.op
		s := time.Now()
		switch o.kind {
		case opEdit:
			_, _ = eng.ApplyEdits(editsOf(o)...) // pass A already reported any edit failure
			continue
		case opSingle:
			_, tr, err := eng.TraceSingleSource(ctx, o.measure, o.node)
			if err == nil {
				t.addChildren(t.add(-1, i, "stage.single", s, time.Now()), i, "simstar.", tr.Spans)
			}
		case opBatch:
			root := t.add(-1, i, "stage.batch", s, s)
			for _, sl := range o.batch {
				s2 := time.Now()
				if _, tr, err := eng.TraceTopK(ctx, sl.Measure, sl.Node, topK); err == nil {
					t.addChildren(t.add(root, i, "stage.slot", s2, time.Now()), i, "simstar.", tr.Spans)
				}
			}
			t.spans[root].End = int64(time.Since(t.t0))
		default:
			qe := eng
			if o.kind == opCert {
				qe = cert
			}
			if _, tr, err := qe.TraceTopK(ctx, o.measure, o.node, topK); err == nil {
				t.addChildren(t.add(-1, i, "stage."+o.kind.String(), s, time.Now()), i, "simstar.", tr.Spans)
			}
		}
	}
}

// primedEngine builds an engine with simserve's default options plus an
// observer and sends it, untraced, the reads the server saw before the
// timed phase (set-up and warm-up queries), so the replay starts from the
// server's cache state.
func primedEngine(g *simstar.Graph, prime []op) *simstar.Engine {
	eng := simstar.NewEngine(g, simstar.WithObserver(simstar.NewObserver(obs.NewRegistry())))
	ctx := context.Background()
	for _, o := range prime {
		switch o.kind {
		case opSingle:
			eng.MultiSource(ctx, []simstar.Query{{Measure: o.measure, Node: o.node}})
		case opStream:
			if st, err := eng.TopKStream(ctx, o.measure, o.node, topK); err == nil {
				for _, ok := st.Next(); ok; _, ok = st.Next() {
				}
			}
		default:
			eng.BatchTopK(ctx, engineQueries(o))
		}
	}
	return eng
}

// engineQueries is a topk, cert or batch op as the server hands it to
// BatchTopK.
func engineQueries(o op) []simstar.Query {
	switch o.kind {
	case opCert:
		return []simstar.Query{{Measure: o.measure, Node: o.node, K: topK,
			Opts: []simstar.Option{simstar.WithTolerance(certTolerance)}}}
	case opBatch:
		qs := make([]simstar.Query, len(o.batch))
		for j, sl := range o.batch {
			qs[j] = simstar.Query{Measure: sl.Measure, Node: sl.Node, K: topK}
		}
		return qs
	}
	return []simstar.Query{{Measure: o.measure, Node: o.node, K: topK}}
}

// idOp is an op with the index phase 1 knew it by, so spans of one
// request join across phases.
type idOp struct {
	id int
	op
}

// replayOrder lists the ops phase 1 sent, in the order it sent them, so
// each edit batch lands among the same reads it landed among on the
// server. Op ids at or past len(reads) are edit batches.
func replayOrder(reads, edits []op, recs []rec) []idOp {
	sent := append([]rec(nil), recs...)
	sort.SliceStable(sent, func(i, j int) bool { return sent[i].sent < sent[j].sent })
	out := make([]idOp, len(sent))
	for i, r := range sent {
		if r.op < len(reads) {
			out[i] = idOp{r.op, reads[r.op]}
		} else {
			out[i] = idOp{r.op, edits[r.op-len(reads)]}
		}
	}
	return out
}

func editsOf(o op) []simstar.Edit {
	edits := make([]simstar.Edit, 0, len(o.insert)+len(o.del))
	for _, e := range o.insert {
		edits = append(edits, simstar.InsertEdge(e[0], e[1]))
	}
	for _, e := range o.del {
		edits = append(edits, simstar.DeleteEdge(e[0], e[1]))
	}
	return edits
}

// layerCalls is phase 3: direct, timed calls into the kernel, sweep and
// graph layers on the workload's own inputs — the sources its requests
// missed the cache on, and its edit batches. Every call is a span with
// req -1.
type layerStats struct {
	geo, exp, rwrT, sieved, block16 []time.Duration
	scatter, horner                 []time.Duration
	update, apply                   []time.Duration
	nnzFrac, sweeps                 []float64
	bytesPerSweep                   float64
}

func (t *tracer) layerCalls(g *graph.Graph, sources []int, edits []op) layerStats {
	t.phase = "layers"
	var ls layerStats
	ctx := context.Background()
	qm := sparse.BackwardTransition(g)
	qt := qm.Transpose()
	w := sparse.ForwardTransition(g)
	n := g.N()
	ws := sparse.NewWorkspace(n)
	dst := make([]float64, n)
	timed := func(name string, into *[]time.Duration, f func()) {
		s := time.Now()
		f()
		e := time.Now()
		t.add(-1, -1, name, s, e)
		*into = append(*into, e.Sub(s))
	}
	for _, q := range sources {
		var kt obs.KernelTrace
		timed("core.SingleSourceGeometricWS", &ls.geo, func() {
			ws.Reset()
			_ = core.SingleSourceGeometricWS(ctx, qm, q, core.Options{Trace: &kt}, ws, dst)
		})
		nnz := 0
		for _, v := range dst {
			if v != 0 {
				nnz++
			}
		}
		ls.nnzFrac = append(ls.nnzFrac, float64(nnz)/float64(n))
		ls.sweeps = append(ls.sweeps, float64(kt.Sweeps))
		timed("core.SingleSourceExponentialWS", &ls.exp, func() {
			ws.Reset()
			_ = core.SingleSourceExponentialWS(ctx, qm, q, core.Options{}, ws, dst)
		})
		timed("rwr.SingleSourceWS", &ls.rwrT, func() {
			ws.Reset()
			_ = rwr.SingleSourceWS(ctx, w, q, rwr.Options{}, ws, dst)
		})
		timed("core.ApproxSingleSourceGeometricFromTransition", &ls.sieved, func() {
			_, _, _ = core.ApproxSingleSourceGeometricFromTransition(ctx, qm, qt, q, certTolerance, core.Options{})
		})
	}
	if len(sources) > 0 {
		block := make([]int, batchSlots)
		for i := range block {
			block[i] = sources[i%len(sources)]
		}
		for r := 0; r < 3; r++ {
			timed("core.MultiSourceGeometricFromTransition", &ls.block16, func() {
				_, _ = core.MultiSourceGeometricFromTransition(ctx, qm, qt, block, core.Options{})
			})
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	y := make([]float64, n)
	for r := 0; r < 20; r++ {
		timed("sparse.MulVecTInto", &ls.scatter, func() { qm.MulVecTInto(y, x) })
		timed("sparse.MulVecAddScaleInto", &ls.horner, func() { qm.MulVecAddScaleInto(y, x, x, 0.4) })
	}
	// One sweep streams the CSR once (8-byte value and 4-byte column per
	// nonzero, 4-byte row offsets) and reads x and writes y once each.
	ls.bytesPerSweep = float64(qm.NNZ()*12 + (n+1)*4 + 2*n*8)

	old := g
	oldB, oldF := qm, w
	for _, o := range edits {
		ops := make([]graph.EdgeOp, 0, len(o.insert)+len(o.del))
		for _, e := range o.insert {
			ops = append(ops, graph.EdgeOp{U: e[0], V: e[1]})
		}
		for _, e := range o.del {
			ops = append(ops, graph.EdgeOp{U: e[0], V: e[1], Delete: true})
		}
		var ng *graph.Graph
		var delta *graph.EditDelta
		var err error
		timed("graph.ApplyEdits", &ls.apply, func() { ng, delta, err = old.ApplyEdits(ops) })
		if err != nil {
			break
		}
		timed("sparse.UpdateTransitions", &ls.update, func() {
			oldB = sparse.UpdateBackwardTransition(oldB, ng, delta.DirtyIn)
			oldF = sparse.UpdateForwardTransition(oldF, ng, delta.DirtyOut)
		})
		old = ng
	}
	return ls
}

// missedSources lists, in op order, up to max distinct sources of reads
// whose answers did not come from the cache.
func missedSources(ops []op, recs []rec, max int) []int {
	sorted := append([]rec(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].op < sorted[j].op })
	seen := make(map[int]bool)
	var out []int
	for _, r := range sorted {
		if r.kind == opEdit || r.op >= len(ops) || r.hits > 0 || !r.ok() {
			continue
		}
		o := ops[r.op]
		node := o.node
		if o.kind == opBatch {
			node = o.batch[0].Node
		}
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// breakdown prints, for the first traced request of each route, how its
// client-measured latency splits across layers: the server's stage spans
// (batch, stream) or the in-process stage self times of the same op
// (single, topk, cert), the body transfer, and the remainder nothing
// explains (network, decode, admission, encode, logging, scheduling).
func (t *tracer) breakdown() []string {
	byReq := make(map[int][]span)
	var roots []span
	done := make(map[string]bool)
	for _, s := range t.spans {
		switch {
		case s.Phase == "http" && s.Parent < 0 && !done[s.Name]:
			done[s.Name] = true
			roots = append(roots, s)
		case s.Phase == "stages" && s.Parent >= 0 && strings.HasPrefix(s.Name, "simstar."),
			s.Phase == "engine" && s.Name == "simstar.ApplyEdits":
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	var lines []string
	for _, root := range roots {
		total := root.dur()
		parts := []string{}
		var sum time.Duration
		addPart := func(name string, d time.Duration) {
			parts = append(parts, fmt.Sprintf("%s=%.3fms", name, ms(d)))
			sum += d
		}
		var server bool
		for _, s := range t.spans {
			if s.Phase != "http" || s.Req != root.Req || s.ID == root.ID {
				continue
			}
			switch {
			case s.Name == "simserve.body":
				addPart(s.Name, s.dur())
			case strings.HasPrefix(s.Name, "server."):
				server = true
				addPart(s.Name, s.dur())
			}
		}
		if !server {
			agg := map[string]time.Duration{}
			var order []string
			for _, s := range byReq[root.Req] {
				if _, ok := agg[s.Name]; !ok {
					order = append(order, s.Name)
				}
				agg[s.Name] += s.dur()
			}
			for _, name := range order {
				addPart(name, agg[name])
			}
		}
		parts = append(parts, fmt.Sprintf("remainder=%.3fms", ms(total-sum)))
		lines = append(lines, fmt.Sprintf("  %s op=%d latency=%.3fms = %s", root.Name, root.Req, ms(total), strings.Join(parts, " + ")))
	}
	return lines
}
