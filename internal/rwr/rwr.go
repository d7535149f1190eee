// Package rwr implements Random Walk with Restart (Tong, Faloutsos & Pan,
// ICDM'06) in the series form the paper analyses (Eq. 6):
//
//	s_rwr(i,j) = (1−C)·Σ_{k=0}^{∞} Cᵏ·[Wᵏ]_{i,j}
//
// where W is the row-normalised adjacency matrix. RWR tallies only
// unidirectional paths i→…→j, so it is asymmetric and has its own
// zero-similarity issue (Sec. 3.1): s(Me, Father) = 0 when no directed path
// exists, even though s(Father, Me) > 0. Personalised PageRank is the
// single-source vector special case.
package rwr

import (
	"context"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Options configures RWR.
type Options struct {
	// C is the continuation probability (1−C is the restart probability),
	// default 0.6 to match the paper's experiments.
	C float64
	// K is the series truncation, default 5.
	K int
	// Sieve, when positive, zeroes entries below the threshold at the end.
	Sieve float64
	// Trace, when non-nil, receives kernel-level detail (sweep counts,
	// frontier widths, sieve spend). Nil costs one branch per kernel run;
	// call sites on noalloc paths guard it explicitly (simlint obsnoop).
	Trace *obs.KernelTrace
	// Parallel, when non-nil, fans each sweep of the frontier kernel out
	// across the Sweeper's workers; results stay bitwise-identical to
	// serial. The caller owns the Sweeper for the duration of the call. The
	// dense kernel is serial and ignores it.
	Parallel *sparse.Sweeper
}

func (o Options) withDefaults() Options {
	if o.C <= 0 || o.C >= 1 {
		o.C = 0.6
	}
	if o.K <= 0 {
		o.K = 5
	}
	return o
}

// AllPairs computes the K-th partial sum of Eq. (6) for all pairs by
// iterating S_{k+1} = C·W·S_k + (1−C)·Iₙ; row i holds the RWR scores with
// respect to query node i.
func AllPairs(g *graph.Graph, opt Options) *dense.Matrix {
	s, _ := AllPairsFromTransition(context.Background(), sparse.ForwardTransition(g), opt)
	return s
}

// AllPairsCtx is AllPairs with cancellation checked between iterations.
func AllPairsCtx(ctx context.Context, g *graph.Graph, opt Options) (*dense.Matrix, error) {
	return AllPairsFromTransition(ctx, sparse.ForwardTransition(g), opt)
}

// AllPairsFromTransition iterates against a pre-built forward transition
// matrix W, letting a serving engine amortise the build across queries.
func AllPairsFromTransition(ctx context.Context, w *sparse.CSR, opt Options) (*dense.Matrix, error) {
	opt = opt.withDefaults()
	n := w.R
	s := dense.New(n, n)
	s.AddDiag(1 - opt.C)
	m := dense.New(n, n)
	for k := 0; k < opt.K; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w.MulDenseInto(m, s)
		m.Scale(opt.C)
		m.AddDiag(1 - opt.C)
		s, m = m, s
	}
	sieveVec(s.Data, opt.Sieve)
	return s, nil
}

// SingleSource returns the RWR scores of query q against all nodes —
// personalised PageRank restarted at q, truncated at K terms. It equals row
// q of AllPairs and costs O(K·m).
func SingleSource(g *graph.Graph, q int, opt Options) []float64 {
	s, _ := SingleSourceCtx(context.Background(), g, q, opt)
	return s
}

// SingleSourceCtx is SingleSource with cancellation.
func SingleSourceCtx(ctx context.Context, g *graph.Graph, q int, opt Options) ([]float64, error) {
	dst := make([]float64, g.N())
	if err := SingleSourceWS(ctx, sparse.ForwardTransition(g), q, opt, nil, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// SingleSourceWS is the dense single-source kernel: scores accumulate into
// dst (length n) and the two walk buffers come from ws (nil for a private
// one), so a caller reusing both pays zero allocations per query. It is the
// bitwise reference for SingleSourceFrontier.
//
//simstar:noalloc
func SingleSourceWS(ctx context.Context, w *sparse.CSR, q int, opt Options, ws *sparse.Workspace, dst []float64) error {
	opt = opt.withDefaults()
	n := w.R
	if len(dst) != n {
		panic("rwr: SingleSourceWS dst length mismatch")
	}
	if ws == nil {
		//simstar:lint-ignore noalloc nil-ws convenience fallback, off the pooled serving path
		ws = sparse.NewWorkspace(n)
	} else if ws.Dim() != n {
		panic("rwr: SingleSourceWS workspace dimension mismatch")
	}
	ws.Reset()
	// Row q of Σ Cᵏ Wᵏ: iterate vᵀ ← vᵀW, i.e. v ← Wᵀv.
	cur := ws.Take()
	cur[q] = 1
	next := ws.Raw()
	dense.ZeroVec(dst)
	coef := 1 - opt.C
	sweeps := 0
	// Deadlines flow through the amortised poller (stride 1 here: every
	// iteration is a full O(m) sweep, so each one consults the context) —
	// the same CtxPoll shape the ctxflow analyzer tracks in the fold loops.
	poll := sparse.PollEvery(ctx, 1)
	for k := 0; ; k++ {
		if err := poll.Check(); err != nil {
			return err
		}
		dense.Axpy(dst, coef, cur)
		if k == opt.K {
			break
		}
		w.MulVecTInto(next, cur)
		sweeps++
		cur, next = next, cur
		coef *= opt.C
	}
	sieveVec(dst, opt.Sieve)
	if tr := opt.Trace; tr != nil {
		tr.AddSweeps(sweeps)
	}
	return nil
}

// sieveVec zeroes the entries of x below eps (a no-op for eps <= 0).
func sieveVec(x []float64, eps float64) {
	if eps <= 0 {
		return
	}
	for i, v := range x {
		if v < eps {
			x[i] = 0
		}
	}
}
