// Command benchjson runs the engine's serving-path benchmark suite through
// testing.Benchmark and emits a machine-readable JSON report — ns/op,
// B/op and allocs/op per kernel — so the repository can track a performance
// trajectory across PRs instead of comparing prose. The checked-in
// BENCH_<pr>.json files are produced by
//
//	go run ./cmd/benchjson -out BENCH_<pr>.json -note "<context>"
//
// on a quiet machine; CI runs the same suite with -quick as a smoke check
// (a kernel that regresses into a panic or an allocation storm fails the
// job), without asserting absolute times, which are runner-dependent.
//
// The suite measures the same workload as BenchmarkEngineSingleSource100k
// in the simstar package: exact single-source SimRank* and RWR on a
// 100k-node degree-3 graph whose real locality is hidden behind scrambled
// ids, across the WithRelabeling layouts, plus the pooled zero-allocation
// SingleSourceInto loop (with and without a live Observer — the "obs"
// member reports the instrumentation overhead) and a 64-query batch. The
// "scaling" member repeats the pooled loop with WithParallelSweeps(-1) to
// record the intra-query fan-out speedup for the runner's core count.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/simstar"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// report schema history: 1 = kernel results only; 2 adds the optional
// "serving" member — a cmd/simbench report embedded verbatim (-serving), so
// one BENCH file carries both the kernel ns/op and the serving-path
// latency/throughput baselines for the same graph shape; 3 adds the "obs"
// member bounding the cost of kernel instrumentation; 4 adds the "scaling"
// member recording how the pooled single-source path responds to
// WithParallelSweeps — serial vs all-core ns/op, the ratio, and both sides'
// allocs/op (the fan-out must not break the zero-alloc discipline).
type report struct {
	Schema  int             `json:"schema"`
	Go      string          `json:"go"`
	GOOS    string          `json:"goos"`
	GOARCH  string          `json:"goarch"`
	CPUs    int             `json:"cpus"`
	Nodes   int             `json:"nodes"`
	Edges   int             `json:"edges"`
	Note    string          `json:"note,omitempty"`
	Results []result        `json:"results"`
	Obs     *obsJSON        `json:"obs,omitempty"`
	Scaling *scalingJSON    `json:"scaling,omitempty"`
	Serving json.RawMessage `json:"serving,omitempty"`
}

// scalingJSON is the multi-core scaling record: the pooled SingleSourceInto
// loop at WithParallelSweeps(1) (serial sweeps, the historical baseline)
// against WithParallelSweeps(-1) (one range per available core). speedup is
// serial/parallel; on a single-CPU runner it is honestly ~1.0 — the number
// only means something where workers > 1, which is why CPUs and Workers are
// part of the record. Both allocs_per_op fields must stay 0: the sweeper's
// persistent worker pool, not the consumer, absorbs the fan-out cost.
type scalingJSON struct {
	Workers           int     `json:"workers"`
	SerialNsPerOp     float64 `json:"serial_ns_per_op"`
	ParallelNsPerOp   float64 `json:"parallel_ns_per_op"`
	Speedup           float64 `json:"speedup"`
	AllocsPerOpSerial int64   `json:"allocs_per_op_serial"`
	AllocsPerOpPar    int64   `json:"allocs_per_op_parallel"`
}

// obsJSON records the observability tax on the hottest zero-alloc path:
// the pooled SingleSourceInto loop with no observer attached (every hook a
// single not-taken nil branch) against the same loop with a live Observer
// recording into an obs.Registry. allocs_per_op_off pins the zero-cost-
// when-off contract — instrumentation must not reintroduce allocations —
// and overhead_pct — the ratio of each side's fastest interleaved timing
// block (see measureObs) — is the figure the PR gates at ≤2%.
type obsJSON struct {
	ObserverOffNsPerOp float64 `json:"observer_off_ns_per_op"`
	ObserverOnNsPerOp  float64 `json:"observer_on_ns_per_op"`
	OverheadPct        float64 `json:"overhead_pct"`
	AllocsPerOpOff     int64   `json:"allocs_per_op_off"`
	AllocsPerOpOn      int64   `json:"allocs_per_op_on"`
}

// measureObs estimates the instrumentation overhead by interleaving short
// off and on timing blocks and comparing each side's fastest block. One
// long benchmark per side cannot resolve the sub-percent signal — machine
// noise (thermal ramp, neighbours, interrupts) across two one-second runs
// routinely exceeds it — but timing noise is one-sided, it only ever adds
// time, so over many interleaved ~200ms blocks each side's minimum
// converges on that loop's true cost and their ratio isolates the
// instrumentation. off and on run n pooled queries and return the wall
// time; offAllocs/onAllocs report steady-state allocations per query.
func measureObs(off, on func(n int) time.Duration, offAllocs, onAllocs func() float64) *obsJSON {
	const reps = 30
	const block = 200 * time.Millisecond
	// Calibrate the block length off a short probe, then warm both sides'
	// workspace pools before any timed block.
	per := off(32) / 32
	if per <= 0 {
		per = time.Microsecond
	}
	iters := int(block / per)
	if iters < 16 {
		iters = 16
	}
	on(iters)

	o := &obsJSON{ObserverOffNsPerOp: math.Inf(1), ObserverOnNsPerOp: math.Inf(1)}
	for i := 0; i < reps; i++ {
		// Alternate which side runs first so slow drift across the
		// measurement window cannot systematically favour one side.
		first, second := off, on
		if i%2 == 1 {
			first, second = on, off
		}
		d1 := float64(first(iters).Nanoseconds()) / float64(iters)
		d2 := float64(second(iters).Nanoseconds()) / float64(iters)
		offNs, onNs := d1, d2
		if i%2 == 1 {
			offNs, onNs = d2, d1
		}
		o.ObserverOffNsPerOp = math.Min(o.ObserverOffNsPerOp, offNs)
		o.ObserverOnNsPerOp = math.Min(o.ObserverOnNsPerOp, onNs)
	}
	o.OverheadPct = (o.ObserverOnNsPerOp/o.ObserverOffNsPerOp - 1) * 100
	o.AllocsPerOpOff = int64(math.Round(offAllocs()))
	o.AllocsPerOpOn = int64(math.Round(onAllocs()))
	return o
}

// benchGraph mirrors the simstar benchmark graph: local structure behind
// scrambled ids, so relabeling has something to recover.
func benchGraph(n, deg int) *simstar.Graph {
	rng := rand.New(rand.NewSource(271828))
	shuf := rng.Perm(n)
	edges := make([][2]int, 0, n*deg)
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			v := u + 1 + rng.Intn(64)
			if v >= n {
				v -= n
			}
			edges = append(edges, [2]int{shuf[u], shuf[v]})
		}
	}
	return graph.FromEdges(n, edges)
}

func main() {
	out := flag.String("out", "BENCH.json", "output path for the JSON report (\"-\" for stdout)")
	nodes := flag.Int("nodes", 100_000, "benchmark graph size")
	quick := flag.Bool("quick", false, "CI smoke mode: a small graph, same suite")
	note := flag.String("note", "", "free-form context recorded in the report")
	serving := flag.String("serving", "", "path to a cmd/simbench report to embed under \"serving\"")
	flag.Parse()
	if *quick {
		*nodes = 10_000
	}

	g := benchGraph(*nodes, 3)
	ctx := context.Background()
	miner := simstar.WithMiner(simstar.MinerOptions{
		MinSources: 64, MinTargets: 64, DisablePairMining: true,
	})
	engine := func(opts ...simstar.Option) *simstar.Engine {
		return simstar.NewEngine(g, append([]simstar.Option{simstar.WithCacheSize(-1), miner}, opts...)...)
	}
	single := func(eng *simstar.Engine, measure string) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.SingleSource(ctx, measure, (i*7919)%g.N()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	natural := engine()
	rcm := engine(simstar.WithRelabeling(simstar.RelabelRCM))
	degree := engine(simstar.WithRelabeling(simstar.RelabelDegree))
	// observed is the degree engine with a live Observer: identical kernel
	// work plus real counter/histogram updates, the "on" side of the obs
	// member.
	observed := engine(simstar.WithRelabeling(simstar.RelabelDegree), simstar.WithObserver(simstar.NewObserver(nil)))
	pooled := func(eng *simstar.Engine) func(b *testing.B) {
		return func(b *testing.B) {
			buf := make([]float64, g.N())
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = eng.SingleSourceInto(ctx, simstar.MeasureGeometric, (i*7919)%g.N(), buf); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	const pooledOff = "engine_single_source_into_pooled_degree"
	const pooledOn = "engine_single_source_into_pooled_degree_obs"
	suite := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"engine_single_source_exact", single(natural, simstar.MeasureGeometric)},
		{"engine_single_source_exact_rcm", single(rcm, simstar.MeasureGeometric)},
		{"engine_single_source_exact_degree", single(degree, simstar.MeasureGeometric)},
		{pooledOff, pooled(degree)},
		{pooledOn, pooled(observed)},
		{"engine_single_source_rwr_degree", single(degree, simstar.MeasureRWR)},
		{"engine_multi_source_block64_degree", func(b *testing.B) {
			queries := make([]simstar.Query, 64)
			for i := range queries {
				queries[i] = simstar.Query{Measure: simstar.MeasureGeometric, Node: (i * 1117) % g.N()}
			}
			for i := 0; i < b.N; i++ {
				for _, r := range degree.MultiSource(ctx, queries) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		}},
	}

	rep := report{
		Schema: 4,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Nodes:  g.N(),
		Edges:  g.M(),
		Note:   *note,
	}
	for _, bm := range suite {
		r := testing.Benchmark(bm.fn)
		row := result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		rep.Results = append(rep.Results, row)
		fmt.Fprintf(os.Stderr, "%-42s %12.0f ns/op %10d B/op %6d allocs/op\n",
			bm.name, row.NsPerOp, r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	pooledTimed := func(eng *simstar.Engine) func(n int) time.Duration {
		buf := make([]float64, g.N())
		return func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				var err error
				if buf, err = eng.SingleSourceInto(ctx, simstar.MeasureGeometric, (i*7919)%g.N(), buf); err != nil {
					log.Fatalf("benchjson: obs measurement: %v", err)
				}
			}
			return time.Since(start)
		}
	}
	pooledAllocs := func(eng *simstar.Engine) func() float64 {
		buf := make([]float64, g.N())
		i := 0
		return func() float64 {
			return testing.AllocsPerRun(50, func() {
				var err error
				if buf, err = eng.SingleSourceInto(ctx, simstar.MeasureGeometric, (i*7919)%g.N(), buf); err != nil {
					log.Fatalf("benchjson: obs allocs: %v", err)
				}
				i++
			})
		}
	}
	rep.Obs = measureObs(pooledTimed(degree), pooledTimed(observed),
		pooledAllocs(degree), pooledAllocs(observed))
	fmt.Fprintf(os.Stderr, "obs overhead: %+.2f%% (off %.0f ns/op, on %.0f ns/op, allocs off=%d on=%d)\n",
		rep.Obs.OverheadPct, rep.Obs.ObserverOffNsPerOp, rep.Obs.ObserverOnNsPerOp,
		rep.Obs.AllocsPerOpOff, rep.Obs.AllocsPerOpOn)

	// Scaling: the same pooled loop, WithParallelSweeps(1) (= the degree
	// engine's default serial sweeps) against WithParallelSweeps(-1), one
	// row range per core. measureObs's interleaved-minimum trick applies
	// unchanged — the sweep fan-out signal rides on the same one-sided
	// timing noise as the instrumentation tax.
	fanout := engine(simstar.WithRelabeling(simstar.RelabelDegree), simstar.WithParallelSweeps(-1))
	sc := measureObs(pooledTimed(degree), pooledTimed(fanout),
		pooledAllocs(degree), pooledAllocs(fanout))
	rep.Scaling = &scalingJSON{
		Workers:           par.Workers(),
		SerialNsPerOp:     sc.ObserverOffNsPerOp,
		ParallelNsPerOp:   sc.ObserverOnNsPerOp,
		Speedup:           sc.ObserverOffNsPerOp / sc.ObserverOnNsPerOp,
		AllocsPerOpSerial: sc.AllocsPerOpOff,
		AllocsPerOpPar:    sc.AllocsPerOpOn,
	}
	fmt.Fprintf(os.Stderr, "scaling: %.2fx at %d workers (serial %.0f ns/op, parallel %.0f ns/op, allocs serial=%d parallel=%d)\n",
		rep.Scaling.Speedup, rep.Scaling.Workers, rep.Scaling.SerialNsPerOp,
		rep.Scaling.ParallelNsPerOp, rep.Scaling.AllocsPerOpSerial, rep.Scaling.AllocsPerOpPar)

	if *serving != "" {
		raw, err := os.ReadFile(*serving)
		if err != nil {
			log.Fatalf("benchjson: reading -serving report: %v", err)
		}
		if !json.Valid(raw) {
			log.Fatalf("benchjson: -serving report %s is not valid JSON", *serving)
		}
		rep.Serving = json.RawMessage(raw)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
}
