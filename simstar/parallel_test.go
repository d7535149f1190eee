package simstar_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/simstar"
)

// Conformance contract of WithParallelSweeps: the sweep partition preserves
// per-element accumulation order, so every query result — scores, MaxError
// certificates, rankings — must be bitwise-identical to the serial engine at
// every worker count, for every registered measure, exact and sieved, in
// natural and relabelled layouts.

// parallelWorkerCounts are the fan-out widths the conformance tests sweep.
func parallelWorkerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// parallelGraph builds a seeded random graph dense enough that the sieved
// kernels' frontiers clear the parallel-gather support gate, so the parallel
// scatter path genuinely runs.
func parallelGraph(t testing.TB, n, m int) *simstar.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	set := make(map[[2]int]bool)
	var edges [][2]int
	for len(edges) < m {
		e := [2]int{rng.Intn(n), rng.Intn(n)}
		if e[0] != e[1] && !set[e] {
			set[e] = true
			edges = append(edges, e)
		}
	}
	return simstar.GraphFromEdges(n, edges)
}

// Every registered measure must answer bitwise-identically at every worker
// count. The non-fast-path measures have no parallel sweeps — the assertion
// is then that WithParallelSweeps stays inert — so the toy graph suffices
// (some registered baselines, like mtx-SimRank, are deliberately
// cost-prohibitive at any real size); the fast-path family gets the full
// fan-out exercise on a larger graph below.
func TestParallelSweepsBitwiseAllMeasures(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	probes := []int{0, 3, g.N() - 1}
	base := []simstar.Option{simstar.WithC(0.6), simstar.WithK(4), simstar.WithCacheSize(-1)}
	serial := simstar.NewEngine(g, base...)
	for _, name := range simstar.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			want := make(map[int][]float64)
			for _, q := range probes {
				s, err := serial.SingleSource(ctx, name, q)
				if err != nil {
					t.Fatal(err)
				}
				want[q] = s
			}
			for _, w := range parallelWorkerCounts() {
				eng := simstar.NewEngine(g, append(append([]simstar.Option(nil), base...), simstar.WithParallelSweeps(w))...)
				for _, q := range probes {
					got, err := eng.SingleSource(ctx, name, q)
					if err != nil {
						t.Fatal(err)
					}
					if !float64sEqual(got, want[q]) {
						t.Fatalf("%s workers=%d q=%d: parallel scores differ from serial", name, w, q)
					}
				}
			}
		})
	}
}

// The sieved paths must reproduce both the scores and the MaxError
// certificate bitwise: the error budget is spent in the same order at every
// worker count because the parallel scatter canonicalises its frontier.
func TestParallelSweepsSievedCertificatesIdentical(t *testing.T) {
	g := parallelGraph(t, 400, 3200)
	ctx := context.Background()
	probes := []int{3, 41, 256, 399}
	measures := []string{
		simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR,
	}
	base := []simstar.Option{
		simstar.WithC(0.6), simstar.WithK(5),
		simstar.WithTolerance(1e-3), simstar.WithCacheSize(-1),
	}
	serial := simstar.NewEngine(g, base...)
	for _, name := range measures {
		for _, q := range probes {
			want, wantErr, err := serial.SingleSourceCertified(ctx, name, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range parallelWorkerCounts() {
				eng := simstar.NewEngine(g, append(append([]simstar.Option(nil), base...), simstar.WithParallelSweeps(w))...)
				got, gotErr, err := eng.SingleSourceCertified(ctx, name, q)
				if err != nil {
					t.Fatal(err)
				}
				if gotErr != wantErr {
					t.Fatalf("%s workers=%d q=%d: certificate %g != serial %g", name, w, q, gotErr, wantErr)
				}
				if !float64sEqual(got, want) {
					t.Fatalf("%s workers=%d q=%d: sieved scores differ from serial", name, w, q)
				}
			}
		}
	}
}

// Soak: parallel queries racing ApplyEdits. Every answer must be coherent —
// the sweeper is borrowed per query against one pinned epoch state — and the
// run is primarily a -race exercise of the worker handoff under churn.
func TestParallelSweepsEditSoak(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(5))
	set := make(map[[2]int]bool)
	var edges [][2]int
	for len(edges) < 512 {
		e := [2]int{rng.Intn(n), rng.Intn(n)}
		if !set[e] {
			set[e] = true
			edges = append(edges, e)
		}
	}
	eng := simstar.NewEngine(
		simstar.GraphFromEdges(n, append([][2]int(nil), edges...)),
		simstar.WithK(4), simstar.WithParallelSweeps(4),
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			measures := []string{simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR}
			for i := 0; i < 30; i++ {
				m := measures[i%len(measures)]
				q := rng.Intn(n)
				switch i % 3 {
				case 0:
					if _, err := eng.SingleSource(ctx, m, q); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := eng.TopKStream(ctx, m, q, 8); err != nil {
						t.Error(err)
						return
					}
				default:
					res := eng.MultiSource(ctx, []simstar.Query{{Measure: m, Node: q}, {Measure: m, Node: (q + 1) % n}})
					for _, rr := range res {
						if rr.Err != nil {
							t.Error(rr.Err)
							return
						}
					}
				}
			}
		}(int64(100 + r))
	}
	editRng := rand.New(rand.NewSource(9))
	for b := 0; b < 6; b++ {
		batch, next := soakEdits(editRng, edges, set)
		edges = next
		if _, err := eng.ApplyEdits(batch...); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
