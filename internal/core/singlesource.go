package core

import (
	"context"
	"math"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// Single-source SimRank* answers one query node in O(K·m + K²·n) time
// without materialising the n×n matrix — the regime the paper's Exp-1
// evaluates (500 single-node queries per graph). Both forms factor through
// the walk vectors w_j = (Qᵀ)ʲ·e_q:
//
// Geometric: row q of Eq. (9) is
//
//	ŝ_q = (1−C) Σ_{α+β<=K} (C/2)^{α+β} binom(α+β, α) Q^α w_β
//	    = (1−C) Σ_α Q^α y_α,   y_α = Σ_β (C/2)^{α+β} binom(α+β,α) w_β,
//
// evaluated by Horner's rule in Q. Exponential: Theorem 3 gives
//
//	ŝ_q = e^{−C} · T_K · (T_Kᵀ e_q),  T_K = Σ_i (C/2)ⁱ/i!·Qⁱ,
//
// so one backward sweep builds v = T_Kᵀ e_q and one forward sweep applies
// T_K. Both match the corresponding all-pairs rows exactly (tested).
//
// These dense kernels are the serial reference: every vector is length n and
// every sweep streams the whole matrix. The engine serves from the frontier
// kernels in approx.go instead, which at tolerance 0 reproduce these bit for
// bit while touching only the nodes the walk reaches; tests compare the two.
// The context is checked between sweeps so deadlines and cancellation abort
// long runs.

// foldPollStride is how many fold-loop Axpys run between amortised context
// checks (see sparse.CtxPoll): small enough that a per-query deadline lands
// within a few O(n) vector ops, large enough that the poll stays off the
// fold's critical path.
const foldPollStride = 8

// SingleSourceGeometric returns the geometric SimRank* scores between q and
// every node, identical to row q of Geometric(g, opt).
func SingleSourceGeometric(g *graph.Graph, q int, opt Options) []float64 {
	s, _ := SingleSourceGeometricCtx(context.Background(), g, q, opt)
	return s
}

// SingleSourceGeometricCtx is SingleSourceGeometric with cancellation.
func SingleSourceGeometricCtx(ctx context.Context, g *graph.Graph, q int, opt Options) ([]float64, error) {
	dst := make([]float64, g.N())
	if err := SingleSourceGeometricWS(ctx, sparse.BackwardTransition(g), q, opt, nil, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// SingleSourceGeometricWS is the dense geometric single-source kernel: it
// writes the scores into dst (length n) and draws every intermediate vector
// from ws (nil for a private one), so a caller that reuses both pays zero
// allocations per query. It is the bitwise reference for
// SingleSourceGeometricFrontier.
//
//simstar:noalloc
func SingleSourceGeometricWS(ctx context.Context, qm *sparse.CSR, q int, opt Options, ws *sparse.Workspace, dst []float64) error {
	opt = opt.withDefaults()
	k := opt.IterationsGeometric()
	n := qm.R
	if len(dst) != n {
		panic("core: SingleSourceGeometricWS dst length mismatch")
	}
	if ws == nil {
		//simstar:lint-ignore noalloc nil-ws convenience fallback, off the pooled serving path
		ws = sparse.NewWorkspace(n)
	} else if ws.Dim() != n {
		panic("core: SingleSourceGeometricWS workspace dimension mismatch")
	}
	ws.Reset()

	// y_α accumulates Σ_β (C/2)^{α+β} binom(α+β, α) w_β; each walk vector
	// w_β = (Qᵀ)^β e_q folds into every y_α it contributes to as soon as it
	// exists, so only two walk buffers are ever live.
	y := ws.TakeVecs(k + 1)
	cur := ws.Take()
	cur[q] = 1
	next := ws.Raw()
	half := opt.C / 2
	sweeps := 0
	// The fold runs O(K²) dense Axpys between backward sweeps; the amortised
	// poller bounds cancellation latency there to foldPollStride Axpys, so a
	// deadline firing mid-fold aborts the query without waiting for the next
	// sweep boundary.
	poll := sparse.PollEvery(ctx, foldPollStride)
	for beta := 0; beta <= k; beta++ {
		if beta > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			qm.MulVecTInto(next, cur)
			sweeps++
			cur, next = next, cur
		}
		for alpha := 0; alpha+beta <= k; alpha++ {
			if err := poll.Check(); err != nil {
				return err
			}
			coef := math.Pow(half, float64(alpha+beta)) * binom(alpha+beta, alpha)
			dense.Axpy(y[alpha], coef, cur)
		}
	}

	// Horner: z = y_K; z = Q·z + y_α for α = K−1 .. 0, the addition fused
	// into the sweep and the final (1−C) normalisation folded into the last
	// step.
	z := y[k]
	for alpha := k - 1; alpha >= 1; alpha-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		qm.MulVecAddInto(next, z, y[alpha])
		sweeps++
		z, next = next, z
	}
	if k == 0 {
		dense.ScaledCopy(dst, 1-opt.C, y[0])
	} else {
		if err := ctx.Err(); err != nil {
			return err
		}
		qm.MulVecAddScaleInto(dst, z, y[0], 1-opt.C)
		sweeps++
	}
	applySieveVec(dst, opt.Sieve)
	if tr := opt.Trace; tr != nil {
		tr.AddSweeps(sweeps)
	}
	return nil
}

// SingleSourceExponential returns the exponential SimRank* scores between q
// and every node, identical to row q of Exponential(g, opt).
func SingleSourceExponential(g *graph.Graph, q int, opt Options) []float64 {
	s, _ := SingleSourceExponentialCtx(context.Background(), g, q, opt)
	return s
}

// SingleSourceExponentialCtx is SingleSourceExponential with cancellation.
func SingleSourceExponentialCtx(ctx context.Context, g *graph.Graph, q int, opt Options) ([]float64, error) {
	dst := make([]float64, g.N())
	if err := SingleSourceExponentialWS(ctx, sparse.BackwardTransition(g), q, opt, nil, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// SingleSourceExponentialWS is the dense exponential single-source kernel:
// scores go into dst (length n), intermediates come from ws (nil for a
// private one). It is the bitwise reference for
// SingleSourceExponentialFrontier.
//
//simstar:noalloc
func SingleSourceExponentialWS(ctx context.Context, qm *sparse.CSR, q int, opt Options, ws *sparse.Workspace, dst []float64) error {
	opt = opt.withDefaults()
	k := opt.IterationsExponential()
	n := qm.R
	if len(dst) != n {
		panic("core: SingleSourceExponentialWS dst length mismatch")
	}
	if ws == nil {
		//simstar:lint-ignore noalloc nil-ws convenience fallback, off the pooled serving path
		ws = sparse.NewWorkspace(n)
	} else if ws.Dim() != n {
		panic("core: SingleSourceExponentialWS workspace dimension mismatch")
	}
	ws.Reset()

	// v = T_Kᵀ e_q = Σ_j (C/2)ʲ/j!·(Qᵀ)ʲ e_q.
	v := ws.Take()
	cur := ws.Take()
	cur[q] = 1
	next := ws.Raw()
	coef := 1.0
	sweeps := 0
	for j := 0; ; j++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dense.Axpy(v, coef, cur)
		if j == k {
			break
		}
		qm.MulVecTInto(next, cur)
		sweeps++
		cur, next = next, cur
		coef *= opt.C / (2 * float64(j+1))
	}

	// s = e^{−C}·T_K·v = e^{−C} Σ_i (C/2)ⁱ/i!·Qⁱ v, accumulated in dst.
	dense.ZeroVec(dst)
	fcur, fnext := v, cur // cur's walk buffer is dead after the last fold
	coef = 1.0
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dense.Axpy(dst, coef, fcur)
		if i == k {
			break
		}
		qm.MulVecInto(fnext, fcur)
		sweeps++
		fcur, fnext = fnext, fcur
		coef *= opt.C / (2 * float64(i+1))
	}
	dense.ScaleVec(dst, math.Exp(-opt.C))
	applySieveVec(dst, opt.Sieve)
	if tr := opt.Trace; tr != nil {
		tr.AddSweeps(sweeps)
	}
	return nil
}

func applySieveVec(x []float64, eps float64) {
	if eps <= 0 {
		return
	}
	for i, v := range x {
		if v < eps {
			x[i] = 0
		}
	}
}

// Ranked is one entry of a top-k result.
type Ranked struct {
	Node  int
	Score float64
}

// rankedBelow is the total order of top-k selection: a ranks below b when
// its score is lower, or at equal score when its node id is larger — the
// deterministic tie-break by node id.
func rankedBelow(a, b Ranked) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// TopK returns the k highest-scoring nodes from a score vector, excluding
// the nodes in `exclude` (typically the query itself). Ties break by node id
// for determinism. Selection uses a bounded min-heap over the candidates —
// O(n log k) instead of a full O(n log n) sort, the difference between a
// per-query sort of millions of nodes and a cheap scan when k is small.
//
// The boundaries are defined, not incidental: k <= 0 returns an empty
// result, and k greater than the number of candidates (len(scores) minus
// the excluded nodes) returns every candidate, fully ordered.
func TopK(scores []float64, k int, exclude ...int) []Ranked {
	return TopKInto(scores, k, nil, exclude...)
}

// excludeScanMax is the exclusion-list length up to which TopKInto skips
// excluded nodes by linear scan. Past it a lookup map is cheaper — and worth
// its allocation, since a caller excluding hundreds of nodes is not on the
// zero-alloc streaming path.
const excludeScanMax = 16

// excludedNode reports whether node is in exclude.
func excludedNode(exclude []int, node int) bool {
	for _, e := range exclude {
		if e == node {
			return true
		}
	}
	return false
}

// rankedSiftUp restores the min-heap order of h (under rankedBelow) after an
// append at index i.
func rankedSiftUp(h []Ranked, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !rankedBelow(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// rankedSiftDown restores the min-heap order of h after the root changed.
func rankedSiftDown(h []Ranked) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && rankedBelow(h[l], h[min]) {
			min = l
		}
		if r < len(h) && rankedBelow(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// TopKInto is TopK writing into caller-provided storage — the
// bounded-materialization selection behind the streaming top-k paths. The
// result is built in dst's backing array (grown only when cap(dst) < the
// clamped k) and returned; entries and order are identical to TopK. With
// cap(dst) >= min(k, len(scores)) and at most excludeScanMax excluded nodes
// the call performs zero heap allocations, so a pooling caller selects the
// top k of an n-vector without materialising anything but the k results.
func TopKInto(scores []float64, k int, dst []Ranked, exclude ...int) []Ranked {
	if k <= 0 {
		return dst[:0]
	}
	// Clamp before sizing the heap: it can never hold more than one entry
	// per score, so an oversized k must not grow the backing array.
	if k > len(scores) {
		k = len(scores)
	}
	var skip map[int]bool
	if len(exclude) > excludeScanMax {
		skip = make(map[int]bool, len(exclude))
		for _, e := range exclude {
			skip[e] = true
		}
	}
	// h is a min-heap under rankedBelow: h[0] is the weakest kept entry.
	h := dst[:0]
	if cap(h) < k {
		h = make([]Ranked, 0, k)
	}
	for i, s := range scores {
		if skip != nil {
			if skip[i] {
				continue
			}
		} else if excludedNode(exclude, i) {
			continue
		}
		r := Ranked{Node: i, Score: s}
		if len(h) < k {
			h = append(h, r)
			rankedSiftUp(h, len(h)-1)
		} else if rankedBelow(h[0], r) {
			h[0] = r
			rankedSiftDown(h)
		}
	}
	// Order the survivors best-first (score descending, node id ascending)
	// by in-place heapsort: popping the weakest to the back repeatedly
	// leaves the strongest at the front. rankedBelow is a strict total
	// order, so this is the exact sequence a comparison sort produces.
	for i := len(h) - 1; i > 0; i-- {
		h[0], h[i] = h[i], h[0]
		rankedSiftDown(h[:i])
	}
	return h
}
