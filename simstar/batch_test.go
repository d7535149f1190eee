package simstar_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/simstar"
)

// The batch path must be a pure performance construct: for every registered
// measure, MultiSource answers exactly what per-query SingleSource answers.
// The cache is disabled so the comparison pits the batch fan-out against a
// genuine per-query recomputation, not against its own cached output.
func TestMultiSourceMatchesSingleSource(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(4), simstar.WithCacheSize(-1))
	var queries []simstar.Query
	for _, name := range simstar.Names() {
		for q := 0; q < g.N(); q += 2 {
			queries = append(queries, simstar.Query{Measure: name, Node: q})
		}
	}
	results := eng.MultiSource(ctx, queries)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		q := queries[i]
		if r.Err != nil {
			t.Fatalf("query %d (%s, node %d): %v", i, q.Measure, q.Node, r.Err)
		}
		want, err := eng.SingleSource(ctx, q.Measure, q.Node)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if d := math.Abs(r.Scores[j] - want[j]); d > 1e-12 {
				t.Fatalf("query %d (%s, node %d): scores[%d] differs by %g", i, q.Measure, q.Node, j, d)
			}
		}
	}
}

// BatchTopK must agree with Engine.TopK query by query, including the
// exclusion list and the K boundary cases.
func TestBatchTopKMatchesTopK(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(6))
	queries := []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 0, K: 3},
		{Measure: simstar.MeasureRWR, Node: 1, K: 2, Exclude: []int{0}},
		{Measure: simstar.MeasureExponential, Node: 2, K: 0},        // boundary: empty
		{Measure: simstar.MeasureGeometric, Node: 3, K: 10 * g.N()}, // boundary: everything
	}
	results := eng.BatchTopK(ctx, queries)
	for i, r := range results {
		q := queries[i]
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		want, err := eng.TopK(ctx, q.Measure, q.Node, q.K, q.Exclude...)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Top) != len(want) {
			t.Fatalf("query %d: %d ranked, want %d", i, len(r.Top), len(want))
		}
		for j := range want {
			if r.Top[j] != want[j] {
				t.Fatalf("query %d: Top[%d] = %+v, want %+v", i, j, r.Top[j], want[j])
			}
		}
	}
	if len(results[2].Top) != 0 {
		t.Fatalf("K=0 query returned %d entries, want 0", len(results[2].Top))
	}
	if len(results[3].Top) != g.N()-1 {
		t.Fatalf("oversized-K query returned %d entries, want all %d candidates", len(results[3].Top), g.N()-1)
	}
}

// Per-query Opts must behave exactly like Engine.With for that query alone.
func TestMultiSourcePerQueryOverrides(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(8))
	queries := []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 1},
		{Measure: simstar.MeasureGeometric, Node: 1, Opts: []simstar.Option{simstar.WithK(2)}},
	}
	results := eng.MultiSource(ctx, queries)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	wantDefault, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOverride, err := eng.With(simstar.WithK(2)).SingleSource(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for j := range wantDefault {
		if results[0].Scores[j] != wantDefault[j] {
			t.Fatalf("default query: scores[%d] = %g, want %g", j, results[0].Scores[j], wantDefault[j])
		}
		if results[1].Scores[j] != wantOverride[j] {
			t.Fatalf("override query: scores[%d] = %g, want %g", j, results[1].Scores[j], wantOverride[j])
		}
		if wantDefault[j] != wantOverride[j] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("K=8 and K=2 gave identical vectors; the override was not applied")
	}
}

// One bad query must fail alone, not take the batch down with it.
func TestMultiSourcePerQueryErrors(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(4))
	results := eng.MultiSource(context.Background(), []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 0},
		{Measure: "no-such-measure", Node: 0},
		{Measure: simstar.MeasureGeometric, Node: g.N() + 5},
		{Measure: simstar.MeasureRWR, Node: 2},
	})
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("good queries failed: %v, %v", results[0].Err, results[3].Err)
	}
	if results[1].Err == nil {
		t.Fatal("unknown measure must error")
	}
	if results[2].Err == nil {
		t.Fatal("out-of-range node must error")
	}
	if results[1].Scores != nil || results[2].Scores != nil {
		t.Fatal("failed queries must not carry scores")
	}
}

// A cancelled context reaches every query: the running ones abort in their
// kernels, the undispatched ones are answered with ctx's error directly.
func TestMultiSourceCancellation(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := make([]simstar.Query, 32)
	for i := range queries {
		queries[i] = simstar.Query{Measure: simstar.MeasureGeometric, Node: i % g.N()}
	}
	for _, results := range [][]simstar.Result{
		eng.MultiSource(ctx, queries),
		eng.BatchTopK(ctx, queries),
	} {
		if len(results) != len(queries) {
			t.Fatalf("got %d results for %d queries", len(results), len(queries))
		}
		for i, r := range results {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("result %d: err = %v, want context.Canceled", i, r.Err)
			}
		}
	}
}

// countingMeasure counts SingleSource invocations — the probe for the
// duplicates-compute-once contract on the fan-out path.
type countingMeasure struct {
	constantMeasure
	name  string
	calls *int64
}

func (m countingMeasure) Name() string { return m.name }

func (m countingMeasure) SingleSource(ctx context.Context, g *simstar.Graph, q int) ([]float64, error) {
	atomic.AddInt64(m.calls, 1)
	return m.constantMeasure.SingleSource(ctx, g, q)
}

// Duplicate queries inside one batch must compute once even on the worker
// fan-out path (non-blockable measure) with the cache disabled.
func TestMultiSourceDeduplicatesFanOut(t *testing.T) {
	const name = "test-counting"
	var calls int64
	simstar.Register(name, func(opts ...simstar.Option) simstar.Measure {
		return countingMeasure{name: name, calls: &calls}
	})
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithCacheSize(-1))
	queries := []simstar.Query{
		{Measure: name, Node: 1},
		{Measure: name, Node: 1},
		{Measure: name, Node: 1},
		{Measure: name, Node: 2},
	}
	results := eng.MultiSource(context.Background(), queries)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if len(r.Scores) != g.N() {
			t.Fatalf("query %d: %d scores", i, len(r.Scores))
		}
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Fatalf("measure computed %d times for 2 distinct queries, want 2", got)
	}
	// The shared results must not alias: mutating one leaves the others.
	results[0].Scores[0] = -99
	if results[1].Scores[0] == -99 {
		t.Fatal("duplicate results share one backing slice")
	}
}

// The fan-out must respect WithWorkers(1) and still cover the whole batch.
func TestMultiSourceSingleWorker(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(4), simstar.WithWorkers(1))
	queries := make([]simstar.Query, g.N())
	for i := range queries {
		queries[i] = simstar.Query{Measure: simstar.MeasureRWR, Node: i}
	}
	for i, r := range eng.MultiSource(context.Background(), queries) {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if len(r.Scores) != g.N() {
			t.Fatalf("query %d: %d scores, want %d", i, len(r.Scores), g.N())
		}
	}
}
