package simstar_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/simstar"
)

// The differential table: every answer path of the engine, for every
// combination of measure × layout × sweep parallelism × tolerance × epoch,
// checked against the serial dense reference on the same operator and
// epoch (simstar.DenseReference). The contract it pins is the engine's:
// every answer is exact or certified.
//
//   - Exact requests — tolerance 0, or below MinTolerance — must be bitwise
//     the reference and report MaxError 0.
//   - Certified requests must report MaxError <= tolerance and stay within
//     it: |answer − reference| <= MaxError element-wise.
//   - Relabelled layouts sweep a permuted operator, so their reference may
//     differ from the natural-order engine's in float reassociation noise
//     only: within 1e-12.

// diffMeasures are the five fast-path measures plus one registry measure
// the engine answers through the measure's own implementation.
var diffMeasures = []string{
	simstar.MeasureGeometric, simstar.MeasureGeometricMemo,
	simstar.MeasureExponential, simstar.MeasureExponentialMemo,
	simstar.MeasureRWR, simstar.MeasurePRank,
}

var diffLayouts = []struct {
	name string
	mode simstar.RelabelMode
}{{"natural", simstar.RelabelNone}, {"degree", simstar.RelabelDegree}, {"rcm", simstar.RelabelRCM}}

var diffTolerances = []float64{0, simstar.MinTolerance / 2, 1e-5}

// diffTopK is the ranking size of the top-k paths.
const diffTopK = 10

// diffEdits are the two edit batches of the "edited" epoch; the second
// grows the graph by one node.
func diffEdits(n int) [][]simstar.Edit {
	return [][]simstar.Edit{
		{simstar.InsertEdge(3, 17), simstar.InsertEdge(40, 5), simstar.DeleteEdge(0, 1), simstar.InsertEdge(n-1, 2)},
		{simstar.InsertEdge(n, 7), simstar.InsertEdge(9, n), simstar.DeleteEdge(5, 6)},
	}
}

// answer is what one answer path returned for one query.
type answer struct {
	scores    []float64        // full vector, or nil for ranking paths
	top       []simstar.Ranked // ranking, or nil for vector paths
	maxErr    float64
	certified bool // the path reports a MaxError
}

// diffEngines is one cell of the table's option product: the engine under
// test (result cache off, so every path really computes) and a twin with
// the cache on and no tolerance option, whose batch paths carry the
// tolerance as a per-query override.
type diffEngines struct {
	eng, twin *simstar.Engine
	tol       float64
}

// diffPaths are the answer paths, each returning the answer for (measure, q).
var diffPaths = []struct {
	name string
	run  func(t *testing.T, d diffEngines, measure string, q int) answer
}{
	{"SingleSource", func(t *testing.T, d diffEngines, measure string, q int) answer {
		s, maxErr, err := d.eng.SingleSourceCertified(context.Background(), measure, q)
		must(t, err)
		return answer{scores: s, maxErr: maxErr, certified: true}
	}},
	{"SingleSourceInto", func(t *testing.T, d diffEngines, measure string, q int) answer {
		buf := make([]float64, 3) // undersized: the path must grow it
		s, err := d.eng.SingleSourceInto(context.Background(), measure, q, buf)
		must(t, err)
		return answer{scores: s}
	}},
	{"TopK", func(t *testing.T, d diffEngines, measure string, q int) answer {
		top, err := d.eng.TopK(context.Background(), measure, q, diffTopK)
		must(t, err)
		return answer{top: top}
	}},
	{"TopKStream", func(t *testing.T, d diffEngines, measure string, q int) answer {
		s, err := d.eng.TopKStream(context.Background(), measure, q, diffTopK)
		must(t, err)
		return answer{top: s.Collect(), maxErr: s.MaxError(), certified: true}
	}},
	{"BatchTopK", func(t *testing.T, d diffEngines, measure string, q int) answer {
		opts := []simstar.Option{simstar.WithTolerance(d.tol)}
		res := d.twin.BatchTopK(context.Background(), []simstar.Query{
			{Measure: simstar.MeasureGeometric, Node: 1, K: diffTopK, Opts: opts},
			{Measure: measure, Node: q, K: diffTopK, Opts: opts},
		})[1]
		must(t, res.Err)
		return answer{top: res.Top, maxErr: res.MaxError, certified: true}
	}},
	{"MultiSource", func(t *testing.T, d diffEngines, measure string, q int) answer {
		opts := []simstar.Option{simstar.WithTolerance(d.tol)}
		res := d.twin.MultiSource(context.Background(), []simstar.Query{
			{Measure: measure, Node: q, Opts: opts},
			{Measure: simstar.MeasureRWR, Node: 2, Opts: opts},
			{Measure: measure, Node: q, Opts: opts}, // duplicate: computed once
		})
		must(t, res[0].Err)
		must(t, res[2].Err)
		if !float64sEqual(res[0].Scores, res[2].Scores) || res[0].MaxError != res[2].MaxError {
			t.Fatal("duplicate batch slots disagree")
		}
		return answer{scores: res[2].Scores, maxErr: res[2].MaxError, certified: true}
	}},
	{"CacheHit", func(t *testing.T, d diffEngines, measure string, q int) answer {
		query := []simstar.Query{{Measure: measure, Node: q, Opts: []simstar.Option{simstar.WithTolerance(d.tol)}}}
		first := d.twin.MultiSource(context.Background(), query)[0]
		must(t, first.Err)
		again := d.twin.MultiSource(context.Background(), query)[0]
		must(t, again.Err)
		if !again.Cached {
			t.Fatal("repeat call missed the result cache")
		}
		if !float64sEqual(first.Scores, again.Scores) || first.MaxError != again.MaxError {
			t.Fatal("cache hit changed the answer")
		}
		return answer{scores: again.Scores, maxErr: again.MaxError, certified: true}
	}},
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialTable(t *testing.T) {
	g := parallelGraph(t, 150, 900)
	n := g.N()
	ctx := context.Background()
	probes := []int{0, 57, n - 1}
	base := []simstar.Option{simstar.WithC(0.6), simstar.WithK(4)}
	build := func(epoch string, opts ...simstar.Option) *simstar.Engine {
		eng := simstar.NewEngine(g, append(append([]simstar.Option(nil), base...), opts...)...)
		if epoch == "edited" {
			for _, batch := range diffEdits(n) {
				_, err := eng.ApplyEdits(batch...)
				must(t, err)
			}
		}
		return eng
	}
	for _, epoch := range []string{"fresh", "edited"} {
		natural := build(epoch)
		for _, layout := range diffLayouts {
			for _, sweeps := range []int{1, 3} {
				for _, tol := range diffTolerances {
					d := diffEngines{
						eng: build(epoch, simstar.WithRelabeling(layout.mode), simstar.WithParallelSweeps(sweeps),
							simstar.WithTolerance(tol), simstar.WithCacheSize(-1)),
						twin: build(epoch, simstar.WithRelabeling(layout.mode), simstar.WithParallelSweeps(sweeps)),
						tol:  tol,
					}
					for _, measure := range diffMeasures {
						name := fmt.Sprintf("%s/%s/sweeps=%d/tol=%g/%s", epoch, layout.name, sweeps, tol, measure)
						t.Run(name, func(t *testing.T) {
							exact := tol < simstar.MinTolerance || !simstar.HasCertifiedPath(measure)
							for _, q := range probes {
								ref, err := simstar.DenseReference(ctx, d.eng, measure, q)
								must(t, err)
								if layout.mode != simstar.RelabelNone {
									want, err := simstar.DenseReference(ctx, natural, measure, q)
									must(t, err)
									for i := range want {
										if math.Abs(ref[i]-want[i]) > 1e-12 {
											t.Fatalf("q=%d: relabelled reference [%d] = %g, natural %g", q, i, ref[i], want[i])
										}
									}
								}
								for _, path := range diffPaths {
									a := path.run(t, d, measure, q)
									if err := checkAnswer(a, ref, q, tol, exact); err != nil {
										t.Fatalf("%s q=%d: %v", path.name, q, err)
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

// checkAnswer holds one path's answer to the contract against ref.
func checkAnswer(a answer, ref []float64, q int, tol float64, exact bool) error {
	bound := tol
	if a.certified {
		if exact && a.maxErr != 0 {
			return fmt.Errorf("exact answer reports MaxError %g", a.maxErr)
		}
		if a.maxErr > tol {
			return fmt.Errorf("MaxError %g exceeds tolerance %g", a.maxErr, tol)
		}
		bound = a.maxErr
	}
	if a.scores != nil {
		if len(a.scores) != len(ref) {
			return fmt.Errorf("%d scores, want %d", len(a.scores), len(ref))
		}
		for i, v := range a.scores {
			if exact && math.Float64bits(v) != math.Float64bits(ref[i]) {
				return fmt.Errorf("[%d] = %v, not bitwise the reference %v", i, v, ref[i])
			}
			if d := math.Abs(v - ref[i]); d > bound {
				return fmt.Errorf("[%d]: |answer − reference| = %g exceeds %g", i, d, bound)
			}
		}
		return nil
	}
	if exact {
		want := simstar.TopK(ref, diffTopK, q)
		if len(a.top) != len(want) {
			return fmt.Errorf("%d ranked, want %d", len(a.top), len(want))
		}
		for i := range want {
			if a.top[i] != want[i] {
				return fmt.Errorf("rank %d = %+v, want %+v", i, a.top[i], want[i])
			}
		}
		return nil
	}
	if len(a.top) != min(diffTopK, len(ref)-1) {
		return fmt.Errorf("%d ranked, want %d", len(a.top), diffTopK)
	}
	for i, r := range a.top {
		if r.Node == q {
			return fmt.Errorf("rank %d is the query node", i)
		}
		if i > 0 && r.Score > a.top[i-1].Score {
			return fmt.Errorf("rank %d scores above rank %d", i, i-1)
		}
		if d := math.Abs(r.Score - ref[r.Node]); d > bound {
			return fmt.Errorf("rank %d (node %d): |score − reference| = %g exceeds %g", i, r.Node, d, bound)
		}
	}
	return nil
}
