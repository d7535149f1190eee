package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func randomPerm(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	return perm
}

func TestInversePerm(t *testing.T) {
	perm := randomPerm(257, 7)
	inv := InversePerm(perm)
	for i, p := range perm {
		if inv[p] != int32(i) {
			t.Fatalf("inv[perm[%d]] = %d, want %d", i, inv[p], i)
		}
	}
	for _, bad := range [][]int32{{0, 0}, {1, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("InversePerm(%v) did not panic", bad)
				}
			}()
			InversePerm(bad)
		}()
	}
}

func TestPermuteMatchesElementwise(t *testing.T) {
	g := dataset.RMATDefault(7, 4, 99) // 128 nodes, heavy-tailed
	m := BackwardTransition(g)
	perm := randomPerm(m.R, 13)
	p := Permute(m, perm)

	if p.R != m.R || p.C != m.C || p.NNZ() != m.NNZ() {
		t.Fatalf("shape/nnz changed: %dx%d nnz %d vs %dx%d nnz %d",
			p.R, p.C, p.NNZ(), m.R, m.C, m.NNZ())
	}
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if got, want := p.At(int(perm[i]), int(perm[j])), m.At(i, j); got != want {
				t.Fatalf("p[perm[%d],perm[%d]] = %g, want %g", i, j, got, want)
			}
		}
	}
	// CSR invariant: ascending columns within each row.
	for i := 0; i < p.R; i++ {
		cols, _ := p.RowView(i)
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d columns not ascending: %v", i, cols)
			}
		}
	}
}

// A permuted operator must commute with vector permutation: P·(M·x) equals
// (P·M·Pᵀ)·(P·x) up to float reassociation — with one entry per row pair the
// sums reorder, so compare within a tight tolerance.
func TestPermuteCommutesWithMatVec(t *testing.T) {
	g := dataset.RMATDefault(7, 4, 100)
	m := ForwardTransition(g)
	perm := randomPerm(m.R, 17)
	p := Permute(m, perm)

	rng := rand.New(rand.NewSource(4))
	x := make([]float64, m.C)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := PermuteVec(m.MulVec(x), perm)
	got := p.MulVec(PermuteVec(x, perm))
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("entry %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestAtBinarySearch(t *testing.T) {
	g := dataset.RMATDefault(6, 5, 3) // 64 nodes
	m := Adjacency(g)
	d := m.ToDense()
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if got, want := m.At(i, j), d.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
	// Boundary probes around a long row's first and last entries.
	for i := 0; i < m.R; i++ {
		cols, _ := m.RowView(i)
		if len(cols) == 0 {
			continue
		}
		if m.At(i, int(cols[0])) != 1 || m.At(i, int(cols[len(cols)-1])) != 1 {
			t.Fatalf("row %d: endpoint lookup failed", i)
		}
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace(8)
	a := ws.Take()
	a[3] = 42
	b := ws.Raw()
	b[0] = 7
	if ws.Dim() != 8 || len(a) != 8 || len(b) != 8 {
		t.Fatalf("bad dimensions")
	}
	ws.Reset()
	a2 := ws.Take()
	if &a2[0] != &a[0] {
		t.Fatalf("Take after Reset did not reuse the first buffer")
	}
	if a2[3] != 0 {
		t.Fatalf("Take returned a dirty buffer: %v", a2)
	}
	vecs := ws.TakeVecs(3)
	if len(vecs) != 3 {
		t.Fatalf("TakeVecs returned %d buffers", len(vecs))
	}
	for _, v := range vecs {
		for _, x := range v {
			if x != 0 {
				t.Fatalf("TakeVecs returned a dirty buffer")
			}
		}
	}
	fs := ws.TakeFrontiers(2)
	fs[0].Add(5, 1)
	first := fs[0]
	if got := ws.Grows(); got != 6 {
		t.Fatalf("Grows = %d after 4 vectors and 2 frontiers, want 6", got)
	}
	ws.Reset()
	fs = ws.TakeFrontiers(1)
	if fs[0] != first || fs[0].Len() != 0 || fs[0].At(5) != 0 {
		t.Fatal("TakeFrontiers after Reset did not hand back the first frontier empty")
	}
	if got := ws.Grows(); got != 6 {
		t.Fatalf("Grows = %d after reuse, want 6", got)
	}
}
