package simstar_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/simstar"
)

// Engine queries must return exactly what the standalone measures return —
// the cache changes the cost, never the answer.
func TestEngineMatchesMeasures(t *testing.T) {
	g := toyGraph(t)
	opts := []simstar.Option{simstar.WithC(0.6), simstar.WithK(5)}
	eng := simstar.NewEngine(g, opts...)
	for _, name := range []string{
		simstar.MeasureGeometric, simstar.MeasureGeometricMemo,
		simstar.MeasureExponential, simstar.MeasureExponentialMemo,
		simstar.MeasureSimRank, simstar.MeasureSimRankMatrix,
		simstar.MeasurePRank, simstar.MeasureRWR, simstar.MeasureSparse,
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			m, err := simstar.Lookup(name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			wantAll, err := m.AllPairs(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			gotAll, err := eng.AllPairs(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < g.N(); i++ {
				for j := 0; j < g.N(); j++ {
					if d := math.Abs(gotAll.At(i, j) - wantAll.At(i, j)); d > 1e-12 {
						t.Fatalf("AllPairs(%d,%d) differs by %g", i, j, d)
					}
				}
			}
			want, err := m.SingleSource(ctx, g, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.SingleSource(ctx, name, 1)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if d := math.Abs(got[j] - want[j]); d > 1e-12 {
					t.Fatalf("SingleSource[%d] differs by %g", j, d)
				}
			}
		})
	}
}

func TestEngineTopK(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(8))
	ctx := context.Background()
	q, _ := g.NodeByLabel("followup1")
	top, err := eng.TopK(ctx, simstar.MeasureGeometric, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("got %d results, want 3", len(top))
	}
	scores, _ := eng.SingleSource(ctx, simstar.MeasureGeometric, q)
	want := simstar.TopK(scores, 3, q)
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK[%d] = %+v, want %+v", i, top[i], want[i])
		}
	}
	for _, r := range top {
		if r.Node == q {
			t.Fatal("TopK must exclude the query node")
		}
	}
	// Exclusions drop the named nodes from the ranking.
	ex := want[0].Node
	top2, err := eng.TopK(ctx, simstar.MeasureGeometric, q, 3, ex)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range top2 {
		if r.Node == ex {
			t.Fatalf("excluded node %d present in result", ex)
		}
	}
}

// The engine must serve concurrent queries off its shared caches: same
// answers under contention as alone.
func TestEngineConcurrentQueries(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(6))
	ctx := context.Background()
	names := []string{
		simstar.MeasureGeometric, simstar.MeasureGeometricMemo,
		simstar.MeasureExponential, simstar.MeasureRWR,
	}
	want := make(map[string][]float64)
	for _, name := range names {
		row, err := eng.SingleSource(ctx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = row
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := names[w%len(names)]
			for rep := 0; rep < 4; rep++ {
				got, err := eng.SingleSource(ctx, name, 0)
				if err != nil {
					errc <- err
					return
				}
				for j := range got {
					if got[j] != want[name][j] {
						errc <- errors.New("concurrent result differs from serial result")
						return
					}
				}
				if _, err := eng.AllPairs(ctx, name); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestEngineCancellation(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("SingleSource error = %v, want context.Canceled", err)
	}
	if _, err := eng.AllPairs(ctx, simstar.MeasureRWR); !errors.Is(err, context.Canceled) {
		t.Fatalf("AllPairs error = %v, want context.Canceled", err)
	}
	if _, err := eng.TopK(ctx, simstar.MeasureGeometric, 0, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopK error = %v, want context.Canceled", err)
	}
}

func TestEngineStats(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	st := eng.Stats()
	if st.Nodes != g.N() || st.Edges != g.M() {
		t.Fatalf("stats %+v disagree with graph n=%d m=%d", st, g.N(), g.M())
	}
	if st.CompressedEdges <= 0 || st.CompressedEdges > st.Edges {
		t.Fatalf("compressed edges %d out of range (m=%d)", st.CompressedEdges, st.Edges)
	}
	if eng.Graph() != g {
		t.Fatal("Graph() must return the served graph")
	}
}

// Re-registering a built-in name must override the engine fast path too:
// the same name may not give different implementations depending on
// whether the caller goes through Lookup or an Engine.
func TestEngineHonoursRegistryOverride(t *testing.T) {
	const name = "test-override-rwr"
	simstar.Register(name, func(opts ...simstar.Option) simstar.Measure {
		return constantMeasure{}
	})
	simstar.RegisterAlias("test-override-alias", name)
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	for _, query := range []string{name, "test-override-alias"} {
		row, err := eng.SingleSource(context.Background(), query, 0)
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != 1 {
			t.Fatalf("%q: engine served %g, want the override's constant 1", query, row[0])
		}
	}
}

func TestEngineRejectsBadQueries(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	ctx := context.Background()
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, -1); err == nil {
		t.Fatal("want error for negative query node")
	}
	if _, err := eng.SingleSource(ctx, "no-such-measure", 0); err == nil {
		t.Fatal("want error for unknown measure")
	}
	if _, err := eng.AllPairs(ctx, "no-such-measure"); err == nil {
		t.Fatal("want error for unknown measure")
	}
}

// An effective iteration count past the float64-resolution cap — from WithK
// or derived from WithEps — is refused with a typed error on every query
// path, before any kernel runs; nothing is clamped. At C = 0.6 the cap is
// K = 71 (the first K with 0.6^(K+1) < 2⁻⁵³).
func TestEngineRefusesIterationsPastCap(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	var kernels atomic.Int64
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithFaultHook(func(string) { kernels.Add(1) }))
	for _, over := range []*simstar.Engine{
		eng.With(simstar.WithK(2000)),
		eng.With(simstar.WithEps(1e-30)), // derives K = 135 geometric, 19 exponential
	} {
		check := func(what string, err error) {
			t.Helper()
			var ie *simstar.IterationsError
			if !errors.As(err, &ie) {
				t.Fatalf("%s: err = %v, want an IterationsError", what, err)
			}
			if ie.Max != 71 || ie.K <= ie.Max {
				t.Fatalf("%s: IterationsError{K: %d, Max: %d}, want Max 71 < K", what, ie.K, ie.Max)
			}
		}
		for _, m := range []string{simstar.MeasureGeometric, simstar.MeasureRWR, simstar.MeasurePRank} {
			_, err := over.SingleSource(ctx, m, 0)
			check(m+" SingleSource", err)
			_, err = over.SingleSourceInto(ctx, m, 0, nil)
			check(m+" SingleSourceInto", err)
			_, err = over.TopKStream(ctx, m, 0, 3)
			check(m+" TopKStream", err)
			check(m+" BatchTopK", over.BatchTopK(ctx, []simstar.Query{{Measure: m, Node: 0, K: 3}})[0].Err)
			_, err = over.AllPairs(ctx, m)
			check(m+" AllPairs", err)
		}
	}
	if n := kernels.Load(); n != 0 {
		t.Fatalf("%d kernels ran for refused queries", n)
	}
	// The exponential form derives a far smaller K from the same ε.
	if _, err := eng.With(simstar.WithEps(1e-30)).SingleSource(ctx, simstar.MeasureExponential, 0); err != nil {
		t.Fatalf("exponential at eps 1e-30: %v", err)
	}
	// The cap itself is served.
	if _, err := eng.With(simstar.WithK(71)).SingleSource(ctx, simstar.MeasureGeometric, 0); err != nil {
		t.Fatalf("K = 71: %v", err)
	}
	// K costs co-citation nothing, so no K is refused for it.
	if _, err := eng.With(simstar.WithK(2000)).AllPairs(ctx, simstar.MeasureCoCitation); err != nil {
		t.Fatalf("cocitation at K = 2000: %v", err)
	}
	// One ulp below C = 1 the cap is ~3.3e17. Working it out must not step
	// through that many powers of C: a default-K query there is answered at
	// once on every path.
	near := simstar.NewEngine(g, simstar.WithC(math.Nextafter(1, 0)))
	for _, m := range []string{simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR} {
		if _, err := near.SingleSource(ctx, m, 0); err != nil {
			t.Fatalf("%s SingleSource at C = 1-ulp: %v", m, err)
		}
		if _, err := near.SingleSourceInto(ctx, m, 0, nil); err != nil {
			t.Fatalf("%s SingleSourceInto at C = 1-ulp: %v", m, err)
		}
		if _, err := near.TopKStream(ctx, m, 0, 3); err != nil {
			t.Fatalf("%s TopKStream at C = 1-ulp: %v", m, err)
		}
		if err := near.BatchTopK(ctx, []simstar.Query{{Measure: m, Node: 1, K: 3}})[0].Err; err != nil {
			t.Fatalf("%s BatchTopK at C = 1-ulp: %v", m, err)
		}
		if _, err := near.AllPairs(ctx, m); err != nil {
			t.Fatalf("%s AllPairs at C = 1-ulp: %v", m, err)
		}
	}
}

// A workspace grown by a query past the engine's iteration count is dropped,
// not pooled: after one K = 60 query the pool hands out workspaces of the
// default-K size again.
func TestHighKWorkspaceNotPooled(t *testing.T) {
	g := parallelGraph(t, 150, 900)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithCacheSize(-1))
	buf := make([]float64, g.N())
	if _, err := eng.SingleSourceInto(ctx, simstar.MeasureGeometric, 3, buf); err != nil {
		t.Fatal(err)
	}
	base := simstar.PooledWorkspaceGrows(eng)
	if _, err := eng.With(simstar.WithK(60)).SingleSourceInto(ctx, simstar.MeasureGeometric, 3, buf); err != nil {
		t.Fatal(err)
	}
	if got := simstar.PooledWorkspaceGrows(eng); got > base {
		t.Fatalf("pooled workspace holds %d buffers after a K=60 query, default-K size is %d", got, base)
	}
	if raceEnabled {
		return // sync.Pool drops items at random under -race
	}
	if _, err := eng.SingleSourceInto(ctx, simstar.MeasureGeometric, 3, buf); err != nil {
		t.Fatal(err)
	}
	if got := simstar.PooledWorkspaceGrows(eng); got != base {
		t.Fatalf("pooled workspace holds %d buffers, want the default-K %d", got, base)
	}
}
