package simstar_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/simstar"
)

// relabelModes are the non-trivial layouts under test.
var relabelModes = map[string]simstar.RelabelMode{
	"degree": simstar.RelabelDegree,
	"rcm":    simstar.RelabelRCM,
}

// A relabelled engine must be observationally identical to the natural-order
// engine for every registered measure: same SingleSource scores (within
// float reassociation noise — the permuted sweeps add the same terms in a
// different order) and same TopK ranking, in external node ids, including on
// epochs produced by ApplyEdits.
func TestRelabeledEngineMatchesNaturalOrder(t *testing.T) {
	g := dataset.RMATDefault(6, 4, 2026) // 64 nodes, heavy-tailed
	ctx := context.Background()
	edits := []simstar.Edit{
		simstar.InsertEdge(3, 17), simstar.InsertEdge(63, 0),
		simstar.DeleteEdge(0, 1), simstar.InsertEdge(64, 5), // grows the graph
	}
	const tol = 1e-12

	for modeName, mode := range relabelModes {
		for _, name := range simstar.Names() {
			if name == simstar.MeasureMtxSimRank {
				// No fast path: mtx-SR takes the same natural-order fallback
				// the other baselines already cover here, at an SVD per call
				// — minutes of runtime for no extra relabeling coverage.
				continue
			}
			t.Run(modeName+"/"+name, func(t *testing.T) {
				plain := simstar.NewEngine(g, simstar.WithK(4))
				perm := simstar.NewEngine(g, simstar.WithK(4), simstar.WithRelabeling(mode))
				compareEngines(t, ctx, plain, perm, name, tol)

				// The refreshed epoch re-derives the permutation; scores must
				// still agree.
				if _, err := plain.ApplyEdits(edits...); err != nil {
					t.Fatal(err)
				}
				if _, err := perm.ApplyEdits(edits...); err != nil {
					t.Fatal(err)
				}
				if pe, pp := plain.Epoch(), perm.Epoch(); pe != pp {
					t.Fatalf("epochs diverged: %d vs %d", pe, pp)
				}
				compareEngines(t, ctx, plain, perm, name, tol)
			})
		}
	}
}

func compareEngines(t *testing.T, ctx context.Context, plain, perm *simstar.Engine, measure string, tol float64) {
	t.Helper()
	n := plain.Graph().N()
	for q := 0; q < n; q += 7 {
		want, err := plain.SingleSource(ctx, measure, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := perm.SingleSource(ctx, measure, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("q=%d node %d: relabelled %g vs natural %g", q, i, got[i], want[i])
			}
		}
		wantTop, err := plain.TopK(ctx, measure, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		gotTop, err := perm.TopK(ctx, measure, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotTop) != len(wantTop) {
			t.Fatalf("q=%d: TopK lengths %d vs %d", q, len(gotTop), len(wantTop))
		}
		for r := range wantTop {
			if math.Abs(gotTop[r].Score-wantTop[r].Score) > tol {
				t.Fatalf("q=%d rank %d: scores %g vs %g", q, r, gotTop[r].Score, wantTop[r].Score)
			}
			// Equal-score prefixes may legitimately reorder only if scores
			// tie; with the tolerance above a node mismatch means a real
			// translation bug unless the two scores coincide.
			if gotTop[r].Node != wantTop[r].Node &&
				math.Abs(gotTop[r].Score-wantTop[r].Score) > 0 {
				t.Fatalf("q=%d rank %d: node %d vs %d (scores %g vs %g)",
					q, r, gotTop[r].Node, wantTop[r].Node, gotTop[r].Score, wantTop[r].Score)
			}
		}
	}
}

// SingleSourceInto must agree exactly with SingleSource and reuse the
// caller's buffer.
func TestSingleSourceIntoMatchesSingleSource(t *testing.T) {
	g := dataset.RMATDefault(6, 4, 11)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(4), simstar.WithRelabeling(simstar.RelabelDegree))
	buf := make([]float64, 0, g.N())
	for _, measure := range []string{
		simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR,
		simstar.MeasureSimRank, // no fast path: exercises the fallback copy
	} {
		for q := 0; q < g.N(); q += 9 {
			want, err := eng.SingleSource(ctx, measure, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.SingleSourceInto(ctx, measure, q, buf)
			if err != nil {
				t.Fatal(err)
			}
			if cap(buf) >= g.N() && &got[0] != &buf[:1][0] {
				t.Fatalf("SingleSourceInto did not reuse the caller's buffer")
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s q=%d node %d: Into %g vs SingleSource %g", measure, q, i, got[i], want[i])
				}
			}
		}
	}
	if _, err := eng.SingleSourceInto(ctx, simstar.MeasureGeometric, -1, buf); err == nil {
		t.Fatal("out-of-range query not rejected")
	}
}

// The exact fast-path serving loop must be allocation-free once warmed:
// pooled kernel workspaces, caller-owned result buffer, no result cache.
func TestSingleSourceIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts are not meaningful")
	}
	g := dataset.RMATDefault(9, 4, 13) // 512 nodes
	ctx := context.Background()
	for name, opts := range map[string][]simstar.Option{
		"natural": {simstar.WithCacheSize(-1)},
		"rcm":     {simstar.WithCacheSize(-1), simstar.WithRelabeling(simstar.RelabelRCM)},
	} {
		t.Run(name, func(t *testing.T) {
			eng := simstar.NewEngine(g, opts...)
			buf := make([]float64, g.N())
			for _, measure := range []string{simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR} {
				// Warm the workspace pool before counting.
				if _, err := eng.SingleSourceInto(ctx, measure, 0, buf); err != nil {
					t.Fatal(err)
				}
				q := 0
				allocs := testing.AllocsPerRun(50, func() {
					var err error
					if _, err = eng.SingleSourceInto(ctx, measure, q%g.N(), buf); err != nil {
						t.Fatal(err)
					}
					q++
				})
				// A GC between runs can empty the sync.Pool and force a
				// one-off re-grow; anything at or above one alloc per run is
				// a real leak in the steady-state path.
				if allocs >= 1 {
					t.Fatalf("%s: %v allocs/op on the pooled path", measure, allocs)
				}
			}
		})
	}
}
