package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// denseGeometric and denseExponential run the dense reference kernels into
// a fresh vector.
func denseGeometric(t testing.TB, qm *sparse.CSR, q int, opt Options) []float64 {
	t.Helper()
	dst := make([]float64, qm.R)
	if err := SingleSourceGeometricWS(context.Background(), qm, q, opt, nil, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

func denseExponential(t testing.TB, qm *sparse.CSR, q int, opt Options) []float64 {
	t.Helper()
	dst := make([]float64, qm.R)
	if err := SingleSourceExponentialWS(context.Background(), qm, q, opt, nil, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

// frontierKernel is the signature both frontier kernels share.
type frontierKernel func(ctx context.Context, qm, qt *sparse.CSR, q int, tol float64, opt Options, ws *sparse.Workspace, dst []float64) (float64, error)

// runFrontier runs a frontier kernel into a fresh vector on a private
// workspace.
func runFrontier(t testing.TB, kernel frontierKernel, qm, qt *sparse.CSR, q int, tol float64, opt Options) ([]float64, float64) {
	t.Helper()
	dst := make([]float64, qm.R)
	cert, err := kernel(context.Background(), qm, qt, q, tol, opt, nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	return dst, cert
}

// frontierTestGraph builds a seeded n-node graph in which every node links
// to deg uniformly random targets — at degree 12 a 2,000-node graph's
// frontiers saturate within a few sweeps, so the Horner accumulators are
// built by many out-of-order AddScaled merges.
func frontierTestGraph(n, deg int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, 0, n*deg)
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			edges = append(edges, [2]int{u, rng.Intn(n)})
		}
	}
	return graph.FromEdges(n, edges)
}

// At tolerance 0 the frontier kernels drop nothing, and because every sweep
// visits its sources in ascending order they must reproduce the dense
// kernels bit for bit, with a zero certificate — the property that lets the
// engine serve exact queries from them. Regression: the sweeps used to
// visit sources in first-touch order, so a Horner accumulator merged by
// AddScaled summed its terms out of order and a few entries per query
// differed in the last ulp.
func TestFrontierTolZeroBitwiseDense(t *testing.T) {
	for _, deg := range []int{3, 12} {
		g := frontierTestGraph(2000, deg, int64(deg))
		qm := sparse.BackwardTransition(g)
		qt := qm.Transpose()
		ws := sparse.NewWorkspace(qm.R)
		dst := make([]float64, qm.R)
		opt := Options{C: 0.6, K: 5}
		for q := 0; q < qm.R; q += 37 {
			for _, c := range []struct {
				name   string
				kernel frontierKernel
				want   []float64
			}{
				{"geometric", SingleSourceGeometricFrontier, denseGeometric(t, qm, q, opt)},
				{"exponential", SingleSourceExponentialFrontier, denseExponential(t, qm, q, opt)},
			} {
				cert, err := c.kernel(context.Background(), qm, qt, q, 0, opt, ws, dst)
				if err != nil {
					t.Fatal(err)
				}
				if cert != 0 {
					t.Fatalf("%s deg=%d q=%d: certificate %g at tolerance 0", c.name, deg, q, cert)
				}
				for i := range dst {
					if math.Float64bits(dst[i]) != math.Float64bits(c.want[i]) {
						t.Fatalf("%s deg=%d q=%d: [%d] = %v, dense %v", c.name, deg, q, i, dst[i], c.want[i])
					}
				}
			}
		}
	}
}

// The sieved kernels' whole contract is the certificate: on any graph, for
// any tolerance, the element-wise deviation from the exact kernel must stay
// within the returned MaxError, which must stay within the tolerance.
func TestApproxGeometricCertificate(t *testing.T) {
	for _, tol := range []float64{1e-2, 1e-3, 1e-5, 1e-7} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(60)
			g := randomApproxGraph(rng, n, 3*n)
			qm := sparse.BackwardTransition(g)
			qt := qm.Transpose()
			opt := Options{C: 0.6, K: 5}
			for q := 0; q < n; q += 7 {
				approx, bound := runFrontier(t, SingleSourceGeometricFrontier, qm, qt, q, tol, opt)
				checkCertificate(t, denseGeometric(t, qm, q, opt), approx, bound, tol)
			}
		}
	}
}

func TestApproxExponentialCertificate(t *testing.T) {
	for _, tol := range []float64{1e-2, 1e-3, 1e-5, 1e-7} {
		for seed := int64(11); seed <= 14; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(60)
			g := randomApproxGraph(rng, n, 3*n)
			qm := sparse.BackwardTransition(g)
			qt := qm.Transpose()
			opt := Options{C: 0.6, K: 7}
			for q := 0; q < n; q += 7 {
				approx, bound := runFrontier(t, SingleSourceExponentialFrontier, qm, qt, q, tol, opt)
				checkCertificate(t, denseExponential(t, qm, q, opt), approx, bound, tol)
			}
		}
	}
}

// The engine runs many queries in a row on one pooled workspace; residue
// from an earlier query leaking into a later one would break the
// certificate, so every result on a shared workspace must match its run on
// a private one exactly, certificate included.
func TestApproxMultiSourceMatchesSingleSource(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	g := randomApproxGraph(rng, 50, 150)
	qm := sparse.BackwardTransition(g)
	qt := qm.Transpose()
	opt := Options{C: 0.6, K: 5}
	ws := sparse.NewWorkspace(qm.R)
	dst := make([]float64, qm.R)
	for _, tol := range []float64{0, 1e-4} {
		for _, kernel := range []frontierKernel{SingleSourceGeometricFrontier, SingleSourceExponentialFrontier} {
			for _, q := range []int{0, 7, 7, 13, 49} {
				bound, err := kernel(ctx, qm, qt, q, tol, opt, ws, dst)
				if err != nil {
					t.Fatal(err)
				}
				want, wantBound := runFrontier(t, kernel, qm, qt, q, tol, opt)
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
}

func TestApproxKernelsHonourCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomApproxGraph(rng, 30, 90)
	qm := sparse.BackwardTransition(g)
	qt := qm.Transpose()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float64, qm.R)
	if _, err := SingleSourceGeometricFrontier(ctx, qm, qt, 0, 1e-4, Options{}, nil, dst); err == nil {
		t.Fatal("geometric: want cancellation error")
	}
	if _, err := SingleSourceExponentialFrontier(ctx, qm, qt, 0, 1e-4, Options{}, nil, dst); err == nil {
		t.Fatal("exponential: want cancellation error")
	}
}

// checkCertificate asserts the two-sided contract |approx−exact| <= bound
// <= tol element-wise.
func checkCertificate(t *testing.T, exact, approx []float64, bound, tol float64) {
	t.Helper()
	if bound > tol {
		t.Fatalf("MaxError %g exceeds tolerance %g", bound, tol)
	}
	for i := range exact {
		if diff := math.Abs(approx[i] - exact[i]); diff > bound {
			t.Fatalf("entry %d: |approx−exact| = %g exceeds certificate %g (tol %g)", i, diff, bound, tol)
		}
	}
}

func randomApproxGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([][2]int, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return graph.FromEdges(n, edges)
}

// lowDegreeGraph builds the benchmark's 100k-node sparse graph: every node
// links to a handful of mostly-local neighbours, the regime (social and
// citation graphs) where a query's K-hop in-neighbourhood stays far below n
// and the sieved frontier path should win big.
func lowDegreeGraph(n, deg int) *graph.Graph {
	rng := rand.New(rand.NewSource(1729))
	edges := make([][2]int, 0, n*deg)
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			v := u + 1 + rng.Intn(64)
			if v >= n {
				v -= n
			}
			edges = append(edges, [2]int{u, v})
		}
	}
	return graph.FromEdges(n, edges)
}

// BenchmarkApproxSingleSource100k compares, on a 100k-node low-degree
// graph, the dense exact kernel against the frontier kernel exact
// (tolerance 0, bitwise the same answer) and sieved at eps=1e-4.
func BenchmarkApproxSingleSource100k(b *testing.B) {
	g := lowDegreeGraph(100_000, 3)
	qm := sparse.BackwardTransition(g)
	qt := qm.Transpose()
	opt := Options{C: 0.6, K: 5}
	ctx := context.Background()
	ws := sparse.NewWorkspace(qm.R)
	dst := make([]float64, qm.R)
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := SingleSourceGeometricWS(ctx, qm, i%g.N(), opt, ws, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name   string
		kernel frontierKernel
		tol    float64
	}{
		{"frontier-exact", SingleSourceGeometricFrontier, 0},
		{"frontier-1e-4", SingleSourceGeometricFrontier, 1e-4},
		{"frontier-exponential-1e-4", SingleSourceExponentialFrontier, 1e-4},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.kernel(ctx, qm, qt, i%g.N(), c.tol, opt, ws, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
