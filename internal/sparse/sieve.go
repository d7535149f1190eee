package sparse

import "repro/internal/obs"

// Certified sieving: under a tolerance the frontier kernels drop entries
// below an adaptive threshold and account every drop against a
// caller-supplied error budget, so the final result carries a
// machine-checkable bound on how far it can be from the exact
// (truncated-series) answer.
//
// The accounting rests on two facts about the transition operators (rows of
// Q and W sum to at most 1, entries are non-negative):
//
//   - A transpose sweep (Qᵀ·x) never grows the 1-norm of non-negative mass,
//     and any single entry of a non-negative vector is at most its 1-norm.
//     Dropping mass δ (1-norm) before a chain of sweeps with total
//     downstream coefficient weight w therefore perturbs every output entry
//     by at most w·δ — SieveMass.
//   - A forward sweep (Q·x) never grows the ∞-norm: row sums <= 1 bound
//     (Q^a d)_i <= ‖d‖_∞ for the whole dropped vector at once. Dropping
//     entries each below τ before downstream weight w perturbs every output
//     entry by at most w·max(dropped) — SievePeak.
//
// Each sieve point receives an equal share of the remaining budget and
// spends only what it actually drops; unspent budget rolls forward, so the
// threshold adapts: early sweeps on tiny frontiers drop little and leave
// later, denser sweeps more room.

// CertSlack is the floating-point headroom every non-zero certificate
// includes: the dropped-mass bound is exact only in real arithmetic, and a
// drop perturbs how later sums round. Scores are bounded by 1 and per-entry
// accumulation chains are far below 10⁴ flops, so 10⁻¹² covers that noise
// with orders of magnitude to spare while remaining negligible against any
// useful tolerance.
const CertSlack = 1e-12

// MinCertTolerance is the smallest tolerance the frontier kernels sieve at:
// below it the budget cannot fund a single drop past CertSlack, so the
// kernels drop nothing and certify 0 — they are then exact, bitwise-equal
// to the dense kernels.
const MinCertTolerance = 1e-9

// CertBudget tracks an adaptive sieve budget across a fixed number of sieve
// points and accumulates the certified error bound actually incurred. The
// zero value (and any budget made for a tolerance below MinCertTolerance)
// is exact: it drops nothing and certifies 0.
type CertBudget struct {
	remaining float64
	points    int
	bound     float64
	on        bool

	// Trace, when non-nil, receives the certified spend of every sieve
	// point (obs.KernelTrace.AddSieveSpend) so query traces can show where
	// the error budget went. Nil costs one branch per sieve point.
	Trace *obs.KernelTrace
}

// MakeCertBudget returns a budget that keeps the final certificate within
// tol across points sieve points: CertSlack is reserved up front and every
// drop is charged at its downstream weight. A tol below MinCertTolerance
// returns an exact budget.
func MakeCertBudget(tol float64, points int) CertBudget {
	if tol < MinCertTolerance {
		return CertBudget{}
	}
	return CertBudget{remaining: tol - CertSlack, points: points, on: true}
}

// Sieving reports whether the budget can drop anything — false for an
// exact budget, whose kernels then skip computing sieve weights.
func (cb *CertBudget) Sieving() bool { return cb.on }

// allowance is this sieve point's share of the remaining budget.
func (cb *CertBudget) allowance() float64 {
	if cb.points <= 0 {
		return 0
	}
	return cb.remaining / float64(cb.points)
}

// SieveMass sieves f at a transpose-direction point with downstream weight
// w, charging the dropped 1-norm mass times w against the budget.
func (cb *CertBudget) SieveMass(f *Frontier, w float64) {
	allowed := cb.allowance()
	cb.points--
	if allowed <= 0 || w <= 0 || f.Len() == 0 {
		return
	}
	dropped, _ := f.Sieve(allowed / (w * float64(f.Len())))
	spent := w * dropped
	cb.bound += spent
	cb.remaining -= spent
	if cb.Trace != nil {
		cb.Trace.AddSieveSpend(spent)
	}
}

// SievePeak sieves f at a forward-direction point with downstream weight w,
// charging the largest dropped entry times w against the budget (row sums
// <= 1 bound the whole dropped vector's downstream effect by its peak).
func (cb *CertBudget) SievePeak(f *Frontier, w float64) {
	allowed := cb.allowance()
	cb.points--
	if allowed <= 0 || w <= 0 || f.Len() == 0 {
		return
	}
	_, maxDropped := f.Sieve(allowed / w)
	spent := w * maxDropped
	cb.bound += spent
	cb.remaining -= spent
	if cb.Trace != nil {
		cb.Trace.AddSieveSpend(spent)
	}
}

// Certificate returns the certified element-wise error bound: everything
// charged so far plus the floating-point slack, or 0 for an exact budget.
func (cb *CertBudget) Certificate() float64 {
	if !cb.on {
		return 0
	}
	return cb.bound + CertSlack
}
