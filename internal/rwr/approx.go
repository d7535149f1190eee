package rwr

import (
	"context"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// Frontier single-source RWR: the kernel the engine serves every RWR query
// from. The walk mass spreads from the query node through Wᵀ sweeps over a
// sparse frontier, so a sweep costs O(Σ deg(frontier)) instead of O(m).
//
// Below sparse.MinCertTolerance (0 included) nothing is dropped: the result
// is bitwise-equal to SingleSourceWS and the certificate is 0, because every
// sweep visits its sources in ascending order (see sparse.CSR.ScatterMulT),
// the order the dense scatter adds each element's terms in. A larger tol
// drops entries below an adaptive threshold each sweep and charges them
// against an error budget, so the result carries a certified element-wise
// bound
//
//	|approx[i] − exact[i]| <= MaxError <= tol   for every node i,
//
// where "exact" is SingleSourceWS at the same Options. Mass dropped before
// step k can only reach the output through the series tail
// Σ_{l>=k} (1−C)·Cˡ, the geometric decay that lets late sweeps drop
// proportionally more.

// seriesTail returns Σ_{l=j}^{K} (1−C)·Cˡ, the weight mass dropped before
// step j still carries into the output.
func seriesTail(k, j int, c float64) float64 {
	coef, sum := 1-c, 0.0
	for l := 0; l <= k; l++ {
		if l >= j {
			sum += coef
		}
		coef *= c
	}
	return sum
}

// SingleSourceFrontier answers one RWR single-source query against a
// pre-built forward transition matrix: the scores go into dst (length n),
// the two frontiers come from ws (nil for a private one), and the return is
// the MaxError certificate — 0 when tol is below sparse.MinCertTolerance, in
// which case dst is bitwise-equal to SingleSourceWS. opt.Parallel fans each
// sweep out.
//
//simstar:noalloc
func SingleSourceFrontier(ctx context.Context, w *sparse.CSR, q int, tol float64, opt Options, ws *sparse.Workspace, dst []float64) (float64, error) {
	opt = opt.withDefaults()
	n := w.R
	if len(dst) != n {
		panic("rwr: SingleSourceFrontier dst length mismatch")
	}
	if ws == nil {
		//simstar:lint-ignore noalloc nil-ws convenience fallback, off the pooled serving path
		ws = sparse.NewWorkspace(n)
	} else if ws.Dim() != n {
		panic("rwr: SingleSourceFrontier workspace dimension mismatch")
	}
	ws.Reset()
	tr, sw := opt.Trace, opt.Parallel
	budget := sparse.MakeCertBudget(tol, opt.K)
	budget.Trace = tr

	fs := ws.TakeFrontiers(2)
	cur, next := fs[0], fs[1]
	cur.Add(int32(q), 1)
	dense.ZeroVec(dst)
	coef := 1 - opt.C
	for k := 0; ; k++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cur.AddScaledInto(dst, coef)
		if k == opt.K {
			break
		}
		next.Reset()
		sw.ScatterMulT(w, next, cur) // next = Wᵀ·cur
		cur, next = next, cur
		if budget.Sieving() {
			budget.SieveMass(cur, seriesTail(opt.K, k+1, opt.C))
		}
		if tr != nil {
			tr.AddSweeps(1)
			tr.ObserveFrontier(cur.Len())
		}
		coef *= opt.C
	}
	sieveVec(dst, opt.Sieve)
	cert := budget.Certificate()
	if tr != nil {
		tr.Certificate = cert
		if sw != nil {
			tr.AddParSweeps(sw.TakeParSweeps(), sw.Workers())
		}
	}
	return cert, nil
}
