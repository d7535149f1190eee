package rwr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// denseRWR runs the dense reference kernel into a fresh vector.
func denseRWR(t testing.TB, w *sparse.CSR, q int, opt Options) []float64 {
	t.Helper()
	dst := make([]float64, w.R)
	if err := SingleSourceWS(context.Background(), w, q, opt, nil, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

// frontierRWR runs the frontier kernel into a fresh vector on a private
// workspace.
func frontierRWR(t testing.TB, w *sparse.CSR, q int, tol float64, opt Options) ([]float64, float64) {
	t.Helper()
	dst := make([]float64, w.R)
	cert, err := SingleSourceFrontier(context.Background(), w, q, tol, opt, nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	return dst, cert
}

// At tolerance 0 the frontier kernel drops nothing and, sweeping its
// sources in ascending order, must reproduce the dense kernel bit for bit
// with a zero certificate, on sparse (degree 3) and saturating (degree 12)
// 2,000-node graphs alike.
func TestFrontierTolZeroBitwiseDense(t *testing.T) {
	for _, deg := range []int{3, 12} {
		rng := rand.New(rand.NewSource(int64(deg)))
		const n = 2000
		edges := make([][2]int, 0, n*deg)
		for u := 0; u < n; u++ {
			for d := 0; d < deg; d++ {
				edges = append(edges, [2]int{u, rng.Intn(n)})
			}
		}
		w := sparse.ForwardTransition(graph.FromEdges(n, edges))
		ws := sparse.NewWorkspace(n)
		dst := make([]float64, n)
		opt := Options{C: 0.6, K: 5}
		for q := 0; q < n; q += 37 {
			want := denseRWR(t, w, q, opt)
			cert, err := SingleSourceFrontier(context.Background(), w, q, 0, opt, ws, dst)
			if err != nil {
				t.Fatal(err)
			}
			if cert != 0 {
				t.Fatalf("deg=%d q=%d: certificate %g at tolerance 0", deg, q, cert)
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("deg=%d q=%d: [%d] = %v, dense %v", deg, q, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestApproxSingleSourceCertificate(t *testing.T) {
	for _, tol := range []float64{1e-2, 1e-3, 1e-5, 1e-7} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(60)
			g := randomGraph(rng, n, 3*n)
			w := sparse.ForwardTransition(g)
			opt := Options{C: 0.6, K: 6}
			for q := 0; q < n; q += 5 {
				exact := denseRWR(t, w, q, opt)
				approx, bound := frontierRWR(t, w, q, tol, opt)
				if bound > tol {
					t.Fatalf("tol=%g q=%d: MaxError %g exceeds tolerance", tol, q, bound)
				}
				for i := range exact {
					if diff := math.Abs(approx[i] - exact[i]); diff > bound {
						t.Fatalf("tol=%g q=%d i=%d: |approx−exact| = %g exceeds certificate %g", tol, q, i, diff, bound)
					}
				}
			}
		}
	}
}

// Workspace reuse across many queries must not leak state between them:
// every result and certificate on a shared workspace must match the run on
// a private one.
func TestApproxMultiSourceMatchesSingleSource(t *testing.T) {
	ctx := context.Background()
	g := randomGraph(rand.New(rand.NewSource(9)), 40, 120)
	w := sparse.ForwardTransition(g)
	opt := Options{C: 0.6, K: 5}
	ws := sparse.NewWorkspace(w.R)
	dst := make([]float64, w.R)
	for _, tol := range []float64{0, 1e-4} {
		for _, q := range []int{0, 11, 11, 39} {
			bound, err := SingleSourceFrontier(ctx, w, q, tol, opt, ws, dst)
			if err != nil {
				t.Fatal(err)
			}
			want, wantBound := frontierRWR(t, w, q, tol, opt)
			if bound != wantBound {
				t.Fatalf("tol=%g q=%d: shared-workspace bound %g != private %g", tol, q, bound, wantBound)
			}
			for j := range want {
				if dst[j] != want[j] {
					t.Fatalf("tol=%g q=%d j=%d: shared workspace %g != private %g", tol, q, j, dst[j], want[j])
				}
			}
		}
	}
}

func TestApproxHonoursCancellation(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), 20, 60)
	w := sparse.ForwardTransition(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SingleSourceFrontier(ctx, w, 0, 1e-4, Options{}, nil, make([]float64, w.R)); err == nil {
		t.Fatal("want cancellation error")
	}
}
