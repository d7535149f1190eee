package sparse

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// workerCounts are the fan-outs every parallel-vs-serial test sweeps,
// including a count above GOMAXPROCS and a prime that never divides the
// dimensions evenly.
func workerCounts() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)}
}

// TestSweeperScatterMulTBitwise pins the parallel frontier sweep: values,
// touched list (sorted by both forms) and the positive-mass skip must match
// the serial scatter bitwise for every worker count, on supports both above
// and below the parallel gate.
func TestSweeperScatterMulTBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 400, 3600)
	m := BackwardTransition(g)
	for _, support := range []int{parallelGatherMin / 2, 3 * parallelGatherMin} {
		src := NewFrontier(m.R)
		for len(src.idx) < support {
			src.Add(int32(rng.Intn(m.R)), rng.Float64()+0.01)
		}
		want := NewFrontier(m.C)
		m.ScatterMulT(want, src)
		for _, w := range workerCounts() {
			sw := NewSweeper(w)
			got := NewFrontier(m.C)
			sw.ScatterMulT(m, got, src)
			if !slices.Equal(got.idx, want.idx) {
				t.Fatalf("support=%d workers=%d: touched lists differ (%d vs %d entries)",
					support, w, len(got.idx), len(want.idx))
			}
			for _, i := range want.idx {
				if got.val[i] != want.val[i] {
					t.Fatalf("support=%d workers=%d: value at %d differs: %g vs %g",
						support, w, i, got.val[i], want.val[i])
				}
			}
			// Repeated sweeps through the same sweeper must reuse the
			// per-worker segments, not accumulate stale first touches.
			got.Reset()
			sw.ScatterMulT(m, got, src)
			if !slices.Equal(got.idx, want.idx) {
				t.Fatalf("support=%d workers=%d: second sweep differs", support, w)
			}
		}
	}
}

// TestScatterMulTSortsTouched pins the canonical ordering contract the
// parallel form depends on.
func TestScatterMulTSortsTouched(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomGraph(rng, 100, 700)
	m := BackwardTransition(g)
	src := NewFrontier(m.R)
	// Touch in descending order so first-touch order alone would come out
	// unsorted.
	for i := m.R - 1; i >= 0; i -= 3 {
		src.Add(int32(i), 0.5)
	}
	dst := NewFrontier(m.C)
	m.ScatterMulT(dst, src)
	if !slices.IsSorted(dst.idx) {
		t.Fatal("serial ScatterMulT left the touched list unsorted")
	}
}

// TestSweeperConfigureReuse pins pool-borrow semantics: growing the worker
// count spawns workers, shrinking keeps them parked, and the ParSweeps
// counter resets per Configure.
func TestSweeperConfigureReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 128, 900)
	m := BackwardTransition(g)
	src := NewFrontier(m.R)
	for i := 0; i < m.R; i += 2 {
		src.Add(int32(i), rng.Float64()+0.01)
	}
	want := NewFrontier(m.C)
	m.ScatterMulT(want, src)
	got := NewFrontier(m.C)
	sw := NewSweeper(1)
	for _, w := range []int{4, 2, 8, 1, 3} {
		sw.Configure(w)
		if sw.Workers() != max(w, 1) {
			t.Fatalf("Workers() = %d after Configure(%d)", sw.Workers(), w)
		}
		got.Reset()
		sw.ScatterMulT(m, got, src)
		if !slices.Equal(got.idx, want.idx) {
			t.Fatalf("Configure(%d): touched list differs", w)
		}
		for _, i := range want.idx {
			if got.val[i] != want.val[i] {
				t.Fatalf("Configure(%d): value at %d differs", w, i)
			}
		}
		ps := sw.TakeParSweeps()
		if w > 1 && ps != 1 {
			t.Fatalf("Configure(%d): ParSweeps = %d, want 1", w, ps)
		}
		if sw.TakeParSweeps() != 0 {
			t.Fatal("TakeParSweeps did not reset")
		}
	}
}
