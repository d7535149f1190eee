package simstar_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/simstar"
)

// approxTestGraph builds the fixed random graph the certified-approximation
// tests run on, structured enough (hubs, chains, a few sinks) to make the
// sieve actually drop mass. The all-measure conformance loops use a small n:
// measures without a native single-source path pay a full AllPairs per query
// node, and mtx-simrank's SVD makes that expensive beyond a few dozen nodes.
func approxTestGraph(t testing.TB, n int) *simstar.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(271))
	edges := make([][2]int, 0, 3*n)
	for i := 0; i < 3*n; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return simstar.GraphFromEdges(n, edges)
}

// The acceptance contract of the approximate subsystem: for every
// registered measure and every tolerance, the certified bound holds
// element-wise against the exact engine — |approx − exact| <= MaxError <=
// eps. Measures without a sieved path must come back exact with a zero
// certificate, which satisfies the same inequality.
func TestCertifiedApproxConformance(t *testing.T) {
	g := approxTestGraph(t, 20)
	ctx := context.Background()
	exact := simstar.NewEngine(g, simstar.WithK(5))
	queries := []int{0, 7, 19}
	for _, name := range simstar.Names() {
		for _, eps := range []float64{1e-3, 1e-5} {
			approx := simstar.NewEngine(g, simstar.WithK(5), simstar.WithTolerance(eps))
			for _, q := range queries {
				want, err := exact.SingleSource(ctx, name, q)
				if err != nil {
					t.Fatalf("%s eps=%g q=%d exact: %v", name, eps, q, err)
				}
				got, maxErr, err := approx.SingleSourceCertified(ctx, name, q)
				if err != nil {
					t.Fatalf("%s eps=%g q=%d approx: %v", name, eps, q, err)
				}
				if maxErr > eps {
					t.Fatalf("%s eps=%g q=%d: MaxError %g exceeds tolerance", name, eps, q, maxErr)
				}
				for i := range want {
					if diff := math.Abs(got[i] - want[i]); diff > maxErr {
						t.Fatalf("%s eps=%g q=%d i=%d: |approx−exact| = %g exceeds certificate %g",
							name, eps, q, i, diff, maxErr)
					}
				}
			}
		}
	}
}

// The result cache must never satisfy a request from an entry computed at a
// different tolerance — except that exact entries (certificate 0) satisfy
// every tolerance.
func TestToleranceCacheKeySemantics(t *testing.T) {
	g := approxTestGraph(t, 60)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(5))
	loose := eng.With(simstar.WithTolerance(1e-3))
	tight := eng.With(simstar.WithTolerance(1e-5))

	s1, e1, err := loose.SingleSourceCertified(ctx, simstar.MeasureGeometric, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits := eng.CacheStats().Hits
	// A tighter request must not be served by the looser cached entry.
	_, e2, err := tight.SingleSourceCertified(ctx, simstar.MeasureGeometric, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats().Hits; got != hits {
		t.Fatalf("tighter request hit the cache (hits %d → %d)", hits, got)
	}
	if e2 > 1e-5 {
		t.Fatalf("tight certificate %g exceeds 1e-5", e2)
	}
	// The identical tolerance is a hit, re-serving the original certificate
	// and scores.
	hits = eng.CacheStats().Hits
	s3, e3, err := loose.SingleSourceCertified(ctx, simstar.MeasureGeometric, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats().Hits; got != hits+1 {
		t.Fatalf("identical tolerance missed the cache (hits %d → %d)", hits, got)
	}
	if e3 != e1 {
		t.Fatalf("cache hit changed the certificate: %g != %g", e3, e1)
	}
	for i := range s1 {
		if math.Float64bits(s3[i]) != math.Float64bits(s1[i]) {
			t.Fatalf("cache hit changed scores at %d", i)
		}
	}

	// Exact entries are universal donors: an approximate request is served
	// from a cached exact result with a zero certificate.
	eng2 := simstar.NewEngine(g, simstar.WithK(5))
	want, err := eng2.SingleSource(ctx, simstar.MeasureRWR, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := eng2.With(simstar.WithTolerance(1e-3)).MultiSource(ctx, []simstar.Query{
		{Measure: simstar.MeasureRWR, Node: 7},
	})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Cached {
		t.Fatal("approximate request was not served from the exact donor entry")
	}
	if res.MaxError != 0 {
		t.Fatalf("donor-served result carries certificate %g, want 0", res.MaxError)
	}
	for i := range want {
		if math.Float64bits(res.Scores[i]) != math.Float64bits(want[i]) {
			t.Fatalf("donor-served scores differ at %d", i)
		}
	}
}
