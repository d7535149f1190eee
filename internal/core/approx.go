package core

import (
	"context"
	"math"

	"repro/internal/sparse"
)

// Frontier single-source SimRank*: the kernels the engine serves every
// single-source, top-k, stream and batch query from. They evaluate the same
// series as the dense kernels in singlesource.go, but keep every walk
// vector and accumulator in a sparse frontier, so a sweep costs
// O(Σ deg(frontier)) instead of O(m) — on a 100k-node hyperlink graph an
// exact answer touches well under 1% of the nodes.
//
// The tolerance decides how much the frontiers may drop:
//
//   - tol below sparse.MinCertTolerance (0 included) drops nothing. The
//     result is then bitwise-equal to the dense kernel at the same Options
//     and the certificate is 0: the coefficients are the same, and every
//     sweep visits its sources in ascending order (see
//     sparse.CSR.ScatterMulT), which is the order the dense sweeps add each
//     element's terms in.
//   - a larger tol drops entries below an adaptive threshold each sweep and
//     charges every drop against an error budget, so the result comes back
//     with a certified element-wise bound
//
//     |approx[i] − exact[i]| <= MaxError <= tol   for every node i,
//
//     where "exact" is the dense kernel at the same Options (the
//     certificate bounds the sieving error, not the series truncation both
//     share). The thresholds derive from the geometric tail of the series:
//     mass dropped from the β-th backward walk vector reaches the output
//     through coefficients whose total weight decays like C^β, so late
//     sweeps tolerate proportionally larger drops.
//
// Both kernels take the backward transition matrix qm and its materialised
// transpose qt: backward sweeps scatter through qm's rows, forward sweeps
// through qt's (a forward product against a sparse frontier needs column
// access to qm, i.e. rows of qt). Frontiers come from ws, so a pooled
// workspace makes a query allocation-free.

// ApproxSingleSourceGeometricFromTransition is SingleSourceGeometricFrontier
// with a private workspace and a freshly allocated result. Kept because the
// benchmark module (perfbench) times it by this name.
func ApproxSingleSourceGeometricFromTransition(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64, opt Options) ([]float64, float64, error) {
	dst := make([]float64, qm.R)
	cert, err := SingleSourceGeometricFrontier(ctx, qm, qt, q, tol, opt, nil, dst)
	if err != nil {
		return nil, 0, err
	}
	return dst, cert, nil
}

// geoTailWeight bounds, element-wise on the final scores, the effect of
// dropping unit mass from the β-th backward walk vector w_β: the drop
// propagates to every w_{β'} with β' >= β and from there into the output
// through the series coefficients, so the weight is
//
//	(1−C) · Σ_{β'=β}^{K} Σ_{α=0}^{K−β'} (C/2)^{α+β'} · binom(α+β', α),
//
// which is at most C^β (the geometric tail: the α-sum at level l = α+β'
// telescopes to 2^l, and (1−C)·Σ_{l>=β} C^l <= C^β). It is recomputed per
// sieve point — O(K²) — so the kernel needs no per-query weight table.
func geoTailWeight(k, beta int, c float64) float64 {
	half := c / 2
	var sum float64
	for bp := beta; bp <= k; bp++ {
		for alpha := 0; alpha+bp <= k; alpha++ {
			sum += math.Pow(half, float64(alpha+bp)) * binom(alpha+bp, alpha)
		}
	}
	return (1 - c) * sum
}

// SingleSourceGeometricFrontier answers one geometric single-source query:
// the scores go into dst (length n), the frontiers come from ws (nil for a
// private one), and the return is the MaxError certificate — 0 when tol is
// below sparse.MinCertTolerance, in which case dst is bitwise-equal to
// SingleSourceGeometricWS. opt.Parallel fans each sweep out.
//
//simstar:noalloc
func SingleSourceGeometricFrontier(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64, opt Options, ws *sparse.Workspace, dst []float64) (float64, error) {
	opt = opt.withDefaults()
	k := opt.IterationsGeometric()
	n := qm.R
	if len(dst) != n {
		panic("core: SingleSourceGeometricFrontier dst length mismatch")
	}
	if ws == nil {
		//simstar:lint-ignore noalloc nil-ws convenience fallback, off the pooled serving path
		ws = sparse.NewWorkspace(n)
	} else if ws.Dim() != n {
		panic("core: SingleSourceGeometricFrontier workspace dimension mismatch")
	}
	ws.Reset()
	half := opt.C / 2
	tr, sw := opt.Trace, opt.Parallel
	// K backward sieve points plus K Horner sieve points.
	budget := sparse.MakeCertBudget(tol, 2*k)
	budget.Trace = tr

	// Backward: w_β = (Qᵀ)^β e_q, folded into every y_α it contributes to as
	// soon as it exists — the dense kernel's coefficient schedule.
	fs := ws.TakeFrontiers(k + 3)
	y, cur, next := fs[:k+1], fs[k+1], fs[k+2]
	cur.Add(int32(q), 1)
	for beta := 0; beta <= k; beta++ {
		if beta > 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			next.Reset()
			sw.ScatterMulT(qm, next, cur) // next = Qᵀ·cur
			cur, next = next, cur
			if budget.Sieving() {
				budget.SieveMass(cur, geoTailWeight(k, beta, opt.C))
			}
			if tr != nil {
				tr.AddSweeps(1)
				tr.ObserveFrontier(cur.Len())
			}
		}
		for alpha := 0; alpha+beta <= k; alpha++ {
			coef := math.Pow(half, float64(alpha+beta)) * binom(alpha+beta, alpha)
			y[alpha].AddScaled(coef, cur)
		}
	}

	// Horner: z = y_K; z = Q·z + y_α for α = K−1 .. 0, sieving z after each
	// step. A drop at stage α still passes through Q^α (row sums <= 1) and
	// the final (1−C) scale, so it is charged at weight (1−C) on its peak.
	z, zbuf := y[k], next
	for alpha := k - 1; alpha >= 0; alpha-- {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		zbuf.Reset()
		sw.ScatterMulT(qt, zbuf, z) // zbuf = Q·z
		z, zbuf = zbuf, z
		z.AddScaled(1, y[alpha])
		if budget.Sieving() {
			budget.SievePeak(z, 1-opt.C)
		}
		if tr != nil {
			tr.AddSweeps(1)
			tr.ObserveFrontier(z.Len())
		}
	}
	z.ScaledTo(dst, 1-opt.C)
	applySieveVec(dst, opt.Sieve)
	cert := budget.Certificate()
	if tr != nil {
		tr.Certificate = cert
		if sw != nil {
			tr.AddParSweeps(sw.TakeParSweeps(), sw.Workers())
		}
	}
	return cert, nil
}

// expCoefSuffix returns Σ_{i=j}^{K} (C/2)ⁱ/i!, the coefficient tail a drop
// at exponential-series state j still passes through.
func expCoefSuffix(k, j int, c float64) float64 {
	coef, sum := 1.0, 0.0
	for i := 0; i <= k; i++ {
		if i >= j {
			sum += coef
		}
		coef *= c / (2 * float64(i+1))
	}
	return sum
}

// SingleSourceExponentialFrontier is SingleSourceGeometricFrontier's
// exponential-form counterpart: v = T_Kᵀ e_q backward, then s = e^{−C}·T_K·v
// forward, each on frontiers. At tol below sparse.MinCertTolerance dst is
// bitwise-equal to SingleSourceExponentialWS and the certificate is 0.
//
//simstar:noalloc
func SingleSourceExponentialFrontier(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64, opt Options, ws *sparse.Workspace, dst []float64) (float64, error) {
	opt = opt.withDefaults()
	k := opt.IterationsExponential()
	n := qm.R
	if len(dst) != n {
		panic("core: SingleSourceExponentialFrontier dst length mismatch")
	}
	if ws == nil {
		//simstar:lint-ignore noalloc nil-ws convenience fallback, off the pooled serving path
		ws = sparse.NewWorkspace(n)
	} else if ws.Dim() != n {
		panic("core: SingleSourceExponentialFrontier workspace dimension mismatch")
	}
	ws.Reset()
	scale := math.Exp(-opt.C)
	tr, sw := opt.Trace, opt.Parallel
	budget := sparse.MakeCertBudget(tol, 2*k)
	budget.Trace = tr

	// Backward: v = T_Kᵀ e_q = Σ_j coef_j·(Qᵀ)ʲ e_q. A drop of mass δ from
	// the walk at state j reaches v with 1-norm weight suffix(j) and the
	// output through e^{−C}·T_K, whose coefficient sum is suffix(0).
	fs := ws.TakeFrontiers(4)
	cur, next, v, s := fs[0], fs[1], fs[2], fs[3]
	cur.Add(int32(q), 1)
	coef := 1.0
	for j := 0; ; j++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		v.AddScaled(coef, cur)
		if j == k {
			break
		}
		next.Reset()
		sw.ScatterMulT(qm, next, cur) // next = Qᵀ·cur
		cur, next = next, cur
		if budget.Sieving() {
			budget.SieveMass(cur, scale*expCoefSuffix(k, 0, opt.C)*expCoefSuffix(k, j+1, opt.C))
		}
		if tr != nil {
			tr.AddSweeps(1)
			tr.ObserveFrontier(cur.Len())
		}
		coef *= opt.C / (2 * float64(j+1))
	}

	// Forward: s = T_K·v = Σ_i coef_i·Qⁱ v. A drop at state i passes only
	// through forward powers (peak-bounded) with coefficient tail suffix(i).
	fcur, fnext := v, cur
	coef = 1.0
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		s.AddScaled(coef, fcur)
		if i == k {
			break
		}
		fnext.Reset()
		sw.ScatterMulT(qt, fnext, fcur) // fnext = Q·fcur
		fcur, fnext = fnext, fcur
		if budget.Sieving() {
			budget.SievePeak(fcur, scale*expCoefSuffix(k, i+1, opt.C))
		}
		if tr != nil {
			tr.AddSweeps(1)
			tr.ObserveFrontier(fcur.Len())
		}
		coef *= opt.C / (2 * float64(i+1))
	}
	s.ScaledTo(dst, scale)
	applySieveVec(dst, opt.Sieve)
	cert := budget.Certificate()
	if tr != nil {
		tr.Certificate = cert
		if sw != nil {
			tr.AddParSweeps(sw.TakeParSweeps(), sw.Workers())
		}
	}
	return cert, nil
}
