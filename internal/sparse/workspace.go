package sparse

import "repro/internal/obs"

// Workspace is a reusable arena of fixed-dimension vectors for the
// iterative single-source kernels: dense length-n buffers for the dense
// reference kernels and Frontiers for the frontier kernels the engine
// serves from. Allocating (and having the runtime zero) O(K) length-n
// vectors per query — ~10MB per request at n=100k, K=5 — would dominate
// steady-state serving cost with GC pressure. A Workspace keeps those
// buffers alive between queries: Reset returns every buffer to the arena,
// Take/Raw/TakeFrontiers hand them out again, and after the first query the
// arena stops growing, making the kernels allocation-free.
//
// A Workspace is not safe for concurrent use; serving layers pool them (one
// per in-flight query) rather than share them.
type Workspace struct {
	n      int
	bufs   [][]float64
	next   int
	hdr    [][]float64 // reusable header slice for TakeVecs
	fronts []*Frontier
	nextF  int
	fhdr   []*Frontier // reusable header slice for TakeFrontiers

	// Trace is a per-query kernel-trace scratch the workspace carries so
	// observed zero-alloc paths have a KernelTrace without allocating one:
	// the serving layer takes &ws.Trace for the duration of its loan.
	// Reset leaves it untouched — its lifecycle belongs to the borrower.
	Trace obs.KernelTrace
}

// NewWorkspace returns an empty arena of dimension n.
func NewWorkspace(n int) *Workspace { return &Workspace{n: n} }

// Dim returns the length of the buffers the arena hands out.
func (w *Workspace) Dim() int { return w.n }

// Reset returns every buffer to the arena. Buffers handed out earlier must
// not be used afterwards.
func (w *Workspace) Reset() { w.next, w.nextF = 0, 0 }

// Take returns a zeroed length-n buffer from the arena, growing it on first
// use.
func (w *Workspace) Take() []float64 {
	b := w.Raw()
	for i := range b {
		b[i] = 0
	}
	return b
}

// Raw returns a length-n buffer with arbitrary contents — for targets a
// kernel overwrites entirely (MulVecInto, MulVecTInto), where Take's zeroing
// pass would be wasted.
func (w *Workspace) Raw() []float64 {
	if w.next == len(w.bufs) {
		w.bufs = append(w.bufs, make([]float64, w.n))
	}
	b := w.bufs[w.next]
	w.next++
	return b
}

// Grows reports how many arena buffers (dense vectors and frontiers) have
// ever been allocated — the trace-visible distinction between a warm pooled
// workspace (stable) and a fresh one paying its first-use growth.
func (w *Workspace) Grows() int { return len(w.bufs) + len(w.fronts) }

// TakeVecs returns count zeroed buffers in a reusable header slice. The
// returned slice is only valid until the next TakeVecs or Reset call; a
// kernel takes its accumulator family in one call.
func (w *Workspace) TakeVecs(count int) [][]float64 {
	w.hdr = w.hdr[:0]
	for i := 0; i < count; i++ {
		w.hdr = append(w.hdr, w.Take())
	}
	return w.hdr
}

// TakeFrontiers returns count empty frontiers of dimension n in a reusable
// header slice, growing the arena on first use. Like TakeVecs, the slice is
// only valid until the next TakeFrontiers or Reset call. Clearing a handed
// out frontier costs O(its previous Len), not O(n).
func (w *Workspace) TakeFrontiers(count int) []*Frontier {
	w.fhdr = w.fhdr[:0]
	for i := 0; i < count; i++ {
		if w.nextF == len(w.fronts) {
			w.fronts = append(w.fronts, NewFrontier(w.n))
		}
		f := w.fronts[w.nextF]
		w.nextF++
		f.Reset()
		w.fhdr = append(w.fhdr, f)
	}
	return w.fhdr
}
