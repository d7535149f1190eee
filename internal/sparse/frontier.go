package sparse

import "slices"

// Frontier is a sparse non-negative vector accumulator over a fixed
// dimension: a dense scratch array plus the list of touched indices. It is
// the substrate of the frontier kernels the engine serves every
// single-source query from — a propagation frontier that stays
// proportional to the mass actually in flight instead of the full node
// count, so a sweep costs O(Σ deg(frontier)) rather than O(m).
//
// The accumulator relies on every added value being strictly positive (all
// frontier kernels propagate non-negative mass): an index is considered
// touched exactly when its scratch entry is non-zero, so zero or negative
// contributions that could cancel an entry back to zero would corrupt the
// touched list. Add enforces this by ignoring v <= 0.
//
// A Frontier is not safe for concurrent use; kernels own their frontiers.
type Frontier struct {
	val []float64
	idx []int32
}

// NewFrontier returns an empty frontier of dimension n.
func NewFrontier(n int) *Frontier {
	return &Frontier{val: make([]float64, n)}
}

// Dim returns the dimension the frontier accumulates over.
func (f *Frontier) Dim() int { return len(f.val) }

// Len returns the number of non-zero entries.
func (f *Frontier) Len() int { return len(f.idx) }

// Reset clears the frontier in O(Len) — only touched entries are zeroed.
func (f *Frontier) Reset() {
	for _, i := range f.idx {
		f.val[i] = 0
	}
	f.idx = f.idx[:0]
}

// Add accumulates v into entry i. Non-positive v is ignored (see the type
// comment: the touched list tracks non-zero entries, which only stays
// correct under strictly positive contributions).
func (f *Frontier) Add(i int32, v float64) {
	if v <= 0 {
		return
	}
	if f.val[i] == 0 {
		f.idx = append(f.idx, i)
	}
	f.val[i] += v
}

// At returns entry i.
func (f *Frontier) At(i int32) float64 { return f.val[i] }

// Entries returns the touched indices and the dense scratch (views; the
// scratch is only valid at touched indices — do not modify either).
func (f *Frontier) Entries() ([]int32, []float64) { return f.idx, f.val }

// Sum returns the 1-norm of the frontier (entries are non-negative).
func (f *Frontier) Sum() float64 {
	var s float64
	for _, i := range f.idx {
		s += f.val[i]
	}
	return s
}

// AddScaled accumulates coef·src into f. coef must be positive.
func (f *Frontier) AddScaled(coef float64, src *Frontier) {
	for _, i := range src.idx {
		f.Add(i, coef*src.val[i])
	}
}

// AddScaledInto accumulates coef·f into the dense vector dst.
func (f *Frontier) AddScaledInto(dst []float64, coef float64) {
	for _, i := range f.idx {
		dst[i] += coef * f.val[i]
	}
}

// ScaledTo overwrites the dense vector dst with coef·f: zero everywhere the
// frontier is untouched. It is how a frontier kernel hands its result to a
// caller-owned buffer without allocating.
func (f *Frontier) ScaledTo(dst []float64, coef float64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, i := range f.idx {
		dst[i] = coef * f.val[i]
	}
}

// Sieve removes every entry strictly below tau, compacting the touched list
// in place. It returns the total removed mass (the 1-norm of what was
// dropped) and the largest single removed entry — the two quantities the
// certified error bounds are built from: transpose-direction sweeps account
// dropped mass in the 1-norm, forward sweeps in the ∞-norm. tau <= 0 is a
// no-op.
func (f *Frontier) Sieve(tau float64) (dropped, maxDropped float64) {
	if tau <= 0 {
		return 0, 0
	}
	keep := f.idx[:0]
	for _, i := range f.idx {
		v := f.val[i]
		if v < tau {
			dropped += v
			if v > maxDropped {
				maxDropped = v
			}
			f.val[i] = 0
			continue
		}
		keep = append(keep, i)
	}
	f.idx = keep
	return dropped, maxDropped
}

// ScatterMulT accumulates mᵀ·src into dst, traversing only the rows of m in
// src's support: dst[c] += m[i,c]·src[i] for every touched i. With m = Q
// (the backward transition matrix) this is one sparse backward sweep; with
// m = Qᵀ materialised it computes Q·src, one sparse forward sweep. dst and
// src must be distinct frontiers of matching dimensions.
//
// Every sweep visits the sources in ascending index order: src's touched
// list is sorted first. That ordering invariant is what makes a frontier
// kernel at tolerance 0 bitwise-equal to the dense kernels — each output
// element then accumulates its terms in exactly the order a dense scatter
// over all rows (MulVecTInto), or a dense gather along an ascending CSR row
// of the transpose (MulVecInto), adds them. First-touch order is otherwise
// an artefact of how src was built: AddScaled appends new entries after old
// ones, so a Horner accumulator comes out of order.
//
// The touched list of dst comes back sorted too, so everything downstream
// of a sweep that iterates it (sieve compaction, dropped-mass summation)
// runs in the same order in this serial form and in the parallel form
// (Sweeper.ScatterMulT), which discovers first touches per output range —
// certificates included.
func (m *CSR) ScatterMulT(dst, src *Frontier) {
	if src.Dim() != m.R || dst.Dim() != m.C {
		panic("sparse: ScatterMulT dimension mismatch")
	}
	slices.Sort(src.idx)
	for _, i := range src.idx {
		xi := src.val[i]
		cols, vals := m.RowView(int(i))
		for k, c := range cols {
			dst.Add(c, vals[k]*xi)
		}
	}
	slices.Sort(dst.idx)
}
