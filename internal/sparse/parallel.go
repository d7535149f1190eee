package sparse

// Intra-query sweep parallelism. A Sweeper fans one frontier sweep out
// across a persistent pool of worker goroutines, partitioned by output range
// so every output element keeps its serial accumulation order — results are
// bitwise-identical to the serial kernels for any worker count (the
// conformance tests in parallel_test.go and simstar's differential table pin
// this for every measure).
//
// Why a persistent pool instead of par.For: the zero-alloc serving discipline.
// par.For closes over kernel state, and a closure that captures locals
// allocates — several times per sweep, dozens of sweeps per query. A Sweeper
// instead sends a flat task struct (a value: no boxing) over per-worker
// channels that live as long as the Sweeper, reuses one WaitGroup, and keeps
// per-worker scratch (frontier segments) across calls, so a warmed Sweeper
// adds zero allocations to a query.
//
// Ownership: a Sweeper is single-borrower — one query (goroutine) drives it
// at a time; the engine pools Sweepers the same way it pools Workspaces.
// Worker goroutines are parked on a channel receive between tasks and hold
// a reference only to their own channel, never to the Sweeper, so a pooled
// Sweeper that becomes garbage is collected normally: a runtime cleanup
// closes the channels and the workers exit.

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/par"
)

// sweepTask is one output-range slice of a frontier sweep. It is
// deliberately a flat struct of pointers: sending it over a channel copies
// the value and allocates nothing.
type sweepTask struct {
	m        *CSR
	dst, src *Frontier
	seg      *[]int32
	lo, hi   int
	wg       *sync.WaitGroup
	pan      *par.PanicBox
}

// run executes the task's range. It writes only to dst's output columns in
// [lo, hi), so concurrent tasks of one sweep never touch the same element.
func (t *sweepTask) run() {
	t.m.gatherMulTRange(t.dst, t.src, t.lo, t.hi, t.seg)
}

// sweepWorker parks on its channel between tasks. It exits when the channel
// closes (the owning Sweeper was collected).
func sweepWorker(ch chan sweepTask) {
	for t := range ch {
		runSweepTask(t)
	}
}

// runSweepTask runs one task with panic isolation: a panicking kernel range
// (a bug, or an injected fault) is recorded in the dispatching Sweeper's
// panic box and re-raised on the borrowing query's goroutine — a raw panic
// here would kill the process, since pool workers have no caller to unwind
// into. The WaitGroup is released on every path so the barrier never hangs.
func runSweepTask(t sweepTask) {
	defer func() {
		if r := recover(); r != nil {
			if t.pan == nil {
				panic(r)
			}
			t.pan.Record(r)
		}
		t.wg.Done()
	}()
	t.run()
}

// sweeperChans holds the worker channels behind a pointer shared between the
// Sweeper and its runtime cleanup. The cleanup must not reference the
// Sweeper itself (that would keep it reachable forever), so it closes the
// channels through this box; Configure grows the box in place and the
// cleanup sees whatever workers exist at collection time.
type sweeperChans struct {
	chs []chan sweepTask
}

// Sweeper drives output-range parallel frontier sweeps over a persistent
// worker pool.
// Not safe for concurrent use: one borrower at a time (pool Sweepers like
// Workspaces). The zero value is not usable; call NewSweeper.
type Sweeper struct {
	box       *sweeperChans
	segs      [][]int32 // per-worker first-touch scratch for gather sweeps
	wg        sync.WaitGroup
	pan       par.PanicBox
	workers   int
	parSweeps int
}

// NewSweeper returns a Sweeper configured for the given worker count
// (clamped to ≥ 1; 1 means every call runs serially on the caller).
func NewSweeper(workers int) *Sweeper {
	s := &Sweeper{box: &sweeperChans{}}
	runtime.AddCleanup(s, func(b *sweeperChans) {
		for _, ch := range b.chs {
			close(ch)
		}
	}, s.box)
	s.Configure(workers)
	return s
}

// Configure sets the worker count, spawning any missing pool goroutines
// (workers already parked are kept across reconfigurations — shrinking is
// just not dispatching to them), and resets the parallel-sweep counter for
// the next borrower.
func (s *Sweeper) Configure(workers int) {
	if workers < 1 {
		workers = 1
	}
	s.workers = workers
	s.parSweeps = 0
	for len(s.box.chs) < workers-1 {
		ch := make(chan sweepTask, 1)
		s.box.chs = append(s.box.chs, ch)
		go sweepWorker(ch)
	}
	for len(s.segs) < workers {
		s.segs = append(s.segs, nil)
	}
}

// Workers returns the configured worker count.
func (s *Sweeper) Workers() int { return s.workers }

// TakeParSweeps returns the number of sweeps that actually fanned out since
// the last Configure/TakeParSweeps, and resets the counter. The engine folds
// it into the query's KernelTrace.
func (s *Sweeper) TakeParSweeps() int {
	n := s.parSweeps
	s.parSweeps = 0
	return n
}

// runCallerChunk runs the caller's inline range of a fanned-out sweep. The
// deferred barrier runs even when the inline range panics — the workers are
// still writing into the sweep's buffers and must finish before the caller
// unwinds and recycles them — and a panic recorded by a worker is re-raised
// here, on the borrowing goroutine, where the serving layers recover it.
func (s *Sweeper) runCallerChunk(t sweepTask) {
	defer func() {
		s.wg.Wait()
		s.pan.Rethrow()
	}()
	t.run()
}

// parallelGatherMin is the src support size below which Sweeper.ScatterMulT
// falls back to the serial scatter: each worker of the parallel form scans
// the full support, so a tiny frontier costs more to fan out than to sweep.
const parallelGatherMin = 32

// ScatterMulT is the parallel form of m.ScatterMulT: dst += mᵀ·src over
// src's support, partitioned by output column range. Each worker scans the
// whole support in order and keeps only the products landing in its range,
// located by binary search over each row's ascending column indices — so per
// output element the accumulation order is exactly the serial order, and
// the positive-mass skip matches Frontier.Add. First touches are recorded
// per worker and concatenated after the barrier; both forms sort the
// touched list (see the serial kernel), so the result is bitwise-identical,
// idx included.
//
// dst must be empty (just Reset, as every kernel call site does): first-touch
// detection reads dst's scratch zeros. A non-empty dst falls back to serial,
// and so does a nil Sweeper — kernels pass their optional Sweeper straight
// through.
func (s *Sweeper) ScatterMulT(m *CSR, dst, src *Frontier) {
	workers := 1
	if s != nil {
		workers = min(s.workers, m.C)
	}
	if workers <= 1 || src.Len() < parallelGatherMin || dst.Len() != 0 {
		m.ScatterMulT(dst, src)
		return
	}
	if src.Dim() != m.R || dst.Dim() != m.C {
		panic("sparse: ScatterMulT dimension mismatch")
	}
	// The same source-order canonicalisation as the serial form: every
	// worker scans the support in ascending order.
	slices.Sort(src.idx)
	t := sweepTask{m: m, dst: dst, src: src, wg: &s.wg, pan: &s.pan}
	chunk := (m.C + workers - 1) / workers
	s.wg.Add(workers - 1)
	lo := chunk
	for i := 0; i < workers-1; i++ {
		hi := lo + chunk
		if hi > m.C {
			hi = m.C
		}
		t2 := t
		t2.lo, t2.hi = lo, hi
		t2.seg = &s.segs[i+1]
		s.box.chs[i] <- t2
		lo = hi
	}
	t.lo, t.hi = 0, chunk
	t.seg = &s.segs[0]
	s.runCallerChunk(t)
	s.parSweeps++
	for i := 0; i < workers; i++ {
		dst.idx = append(dst.idx, s.segs[i]...)
	}
	slices.Sort(dst.idx)
}

// gatherMulTRange accumulates the output-column range [lo, hi) of mᵀ·src
// into dst's scratch, recording first-touched columns into seg (reused
// across calls; reset here). It scans src's support in order — the serial
// accumulation order per output element — and binary-searches each row for
// the start of its slice of the range.
func (m *CSR) gatherMulTRange(dst, src *Frontier, lo, hi int, seg *[]int32) {
	sg := (*seg)[:0]
	val := dst.val
	for _, i := range src.idx {
		xi := src.val[i]
		cols, vals := m.RowView(int(i))
		a, b := 0, len(cols)
		for a < b {
			mid := int(uint(a+b) >> 1)
			if int(cols[mid]) < lo {
				a = mid + 1
			} else {
				b = mid
			}
		}
		for k := a; k < len(cols) && int(cols[k]) < hi; k++ {
			v := vals[k] * xi
			if v <= 0 {
				continue
			}
			c := cols[k]
			if val[c] == 0 {
				sg = append(sg, c)
			}
			val[c] += v
		}
	}
	*seg = sg
}
