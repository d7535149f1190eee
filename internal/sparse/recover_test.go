package sparse

import (
	"strings"
	"testing"
)

// TestSweeperWorkerPanicReachesBorrower pins the recover-and-quarantine
// contract of the persistent pool: a panic inside a pool worker's row range
// must re-raise on the goroutine that borrowed the Sweeper — before this
// fix it was an unrecovered goroutine panic, i.e. process death — and the
// Sweeper must stay usable afterwards (its WaitGroup and panic box fully
// drained), since the engine pools Sweepers across queries.
func TestSweeperWorkerPanicReachesBorrower(t *testing.T) {
	s := NewSweeper(4)
	const n = 256
	src := NewFrontier(n)
	for i := 0; i < n; i += 2 {
		src.Add(int32(i), 1)
	}
	// A CSR with truncated row offsets panics in every chunk that reads a
	// row — spawned worker chunks and the caller's inline chunk alike.
	bad := &CSR{R: n, C: n, RowOff: []int32{0}}

	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("round %d: sweep returned normally, want a re-raised panic", round)
				}
			}()
			s.ScatterMulT(bad, NewFrontier(n), src)
		}()
	}

	// The pool survives: a clean sweep after the panics is bitwise-correct.
	m := &CSR{R: n, C: n, RowOff: make([]int32, n+1), ColIdx: make([]int32, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowOff[i+1] = int32(i + 1)
		m.ColIdx[i] = int32(i)
		m.Val[i] = 1
	}
	dst := NewFrontier(n)
	s.ScatterMulT(m, dst, src)
	for i := 0; i < n; i++ {
		if dst.At(int32(i)) != src.At(int32(i)) {
			t.Fatalf("post-panic sweep wrong at %d: got %g want %g", i, dst.At(int32(i)), src.At(int32(i)))
		}
	}
}

// TestSweepTaskWithoutBoxReRaises covers the defensive branch: a task
// dispatched with no panic box (never the case for Sweeper-driven sweeps)
// must not swallow a panic silently.
func TestSweepTaskWithoutBoxReRaises(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		if s, ok := r.(string); ok && strings.Contains(s, "swallowed") {
			t.Fatal("panic was swallowed")
		}
	}()
	var wgHolder Sweeper
	src := NewFrontier(1)
	src.Add(0, 1)
	task := sweepTask{m: nil, dst: NewFrontier(1), src: src, seg: new([]int32), wg: &wgHolder.wg, lo: 0, hi: 1}
	wgHolder.wg.Add(1)
	runSweepTask(task)
	panic("swallowed")
}
