// Command perfbench is the repository's end-to-end benchmark: it drives a
// fresh simserve over HTTP on the fixed 100k-node benchmark graph with one
// named workload, audits the answers against an in-process engine, and
// prints every metric with its unit. With -trace 1 it instead makes the
// traced run that splits the time by layer. See README.md; run it through
// run.sh, which builds simserve and this command from the checked-out tree.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/simstar"
)

// Seeds: defaultSeed is the one to tune on; heldOutSeed is kept back so a
// later claim can be rechecked on a seed its author did not tune on.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// setupRuns is how many fresh servers an untraced run sets up; setup_s is
// their median. The last one serves the timed phase.
const setupRuns = 5

// Latency limits of slo_frac.
const (
	sloQuery = 50 * time.Millisecond
	sloBatch = 500 * time.Millisecond
)

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics: present on every workload and never 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"resp_bytes", "B"},
	{"server_rss_mb", "MB"},
}

// routeMetrics are end-to-end metrics printed with every untraced run but
// absent on some workloads, or 0 in a healthy run, so they carry no gate.
var routeMetrics = []metricDef{
	{"topk_p50_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"stream_first_ms", "ms"},
	{"edit_p50_ms", "ms"},
	{"slo_frac", "ratio"},
	{"fail_frac", "ratio"},
}

// perLayer are the traced run's metrics. A metric a workload does not
// exercise reads 0 and is listed as absent in the table.
var perLayer = []metricDef{
	{"simserve.ttfb_ms", "ms"},
	{"simserve.body_ms", "ms"},
	{"simserve.server_ms", "ms"},
	{"simserve.queue_wait_ms", "ms"},
	{"simserve.shed", "count"},
	{"simserve.cpu_ms_per_req", "ms"},
	{"simstar.call_ms", "ms"},
	{"simstar.plan_us", "us"},
	{"simstar.cache_us", "us"},
	{"simstar.kernel_ms", "ms"},
	{"simstar.select_us", "us"},
	{"simstar.assemble_us", "us"},
	{"simstar.hit_ratio", "ratio"},
	{"simstar.pool_misses", "count/1k"},
	{"simstar.refresh_ms", "ms"},
	{"simstar.blocked_share", "ratio"},
	{"core.geo_ms", "ms"},
	{"core.exp_ms", "ms"},
	{"rwr.ms", "ms"},
	{"core.sieved_ms", "ms"},
	{"core.block16_ms", "ms"},
	{"core.nnz_frac", "ratio"},
	{"core.sweeps", "count"},
	{"sparse.scatter_us", "us"},
	{"sparse.horner_us", "us"},
	{"sparse.bytes_per_sweep", "B"},
	{"sparse.update_ms", "ms"},
	{"graph.apply_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"host.steal_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// metric is one reported value; absent marks one the workload does not
// exercise.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	absent bool
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// lateP99Ms is how late the writer sent its edit batches, for the
	// noise record.
	lateP99Ms float64
}

// runConfig is the parsed command line plus what every phase shares.
type runConfig struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	bin     string
	out     string
	nproc   int
	g       *simstar.Graph
	graphJS []byte
	plan    plan
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: scores-uniform, topk-hot or churn-closed")
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fl.Int("seconds", 10, "length of the timed phase")
	traceOn := fl.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	bin := fl.String("simserve", "", "simserve binary to benchmark")
	out := fl.String("out", ".bench_out", "directory for server logs, run records and spans")
	root := fl.String("root", ".", "source tree whose content hash identifies the measured build")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *bin == "" || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -simserve, -seconds >= 1 and -trace 0|1:", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		w: w, seed: *seed, seconds: *seconds, traced: *traceOn == 1,
		bin: *bin, out: *out, nproc: runtime.NumCPU(),
	}
	var edges [][2]int
	cfg.g, edges = benchGraph()
	cfg.graphJS, err = json.Marshal(map[string]any{"nodes": graphNodes, "edges": edges})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.plan = makePlan(w, cfg.seed, cfg.seconds)
	tree := treeHash(*root)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d op-stream checksum=%016x (%d warm-up, %d reads, %d edit batches)\n",
		w.name, cfg.seed, cfg.seconds, *traceOn, cfg.plan.checksum(), len(cfg.plan.warm), len(cfg.plan.reads), len(cfg.plan.edits))

	hostStart, runStart := readHostCPU(), time.Now()
	var res result
	var notes []string
	if cfg.traced {
		res, notes, err = tracedRun(cfg, runStart)
	} else {
		res, notes, err = untracedRun(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal := stealFrac(hostStart, readHostCPU())
	if m, ok := res.Metrics["host.steal_frac"]; ok {
		m.Value = steal
		res.Metrics["host.steal_frac"] = m
	}

	noise := map[string]any{
		"nproc":       cfg.nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"tree":        tree,
		"steal_frac":  steal,
		"loadavg_1m":  loadAvg(),
		"wall_s":      time.Since(runStart).Seconds(),
		"late_p99_ms": res.lateP99Ms,
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	noiseJS, _ := json.Marshal(noise) // a map of numbers and strings
	fmt.Fprintf(stdout, "noise: %s\n", noiseJS)
	printTable(stdout, res)

	record := map[string]any{"workload": w.name, "seed": cfg.seed, "trace": *traceOn,
		"checksum": fmt.Sprintf("%016x", cfg.plan.checksum()), "noise": noise, "result": res, "absent": absentNames(res), "notes": notes}
	if js, err := json.MarshalIndent(record, "", "  "); err == nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("run-%s-seed%d-trace%d.json", w.name, cfg.seed, *traceOn))
		if err := os.WriteFile(path, js, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		}
	}

	gated := endToEnd
	if cfg.traced {
		gated = perLayer
	}
	last := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, d := range gated {
		last.Metrics[d.name] = res.Metrics[d.name]
	}
	js, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))
	if !res.Correct {
		return 1
	}
	return 0
}

// phase is one server's warm-up plus timed phase, with what the server
// reported around it.
type phase struct {
	recs           []rec
	start          time.Time
	elapsed        time.Duration
	before, after  map[string]float64
	cpu            time.Duration
	rssMB          float64
	final          [][]byte // churn-closed: answers to finalQueries
	finalFailures  []string
	lateP99Ms      float64
	hits, lookups  int
	queryRecs      []rec
	editRecs       []rec
	failed         int
	wrong          int // 200 answers of the wrong shape
	auditFailures  []string
	auditedAnswers int
	samples        []cpuSample
}

// runPhase warms the server's cache untimed, then runs the timed phase and
// reads the server's counters, CPU time and peak RSS around it.
func runPhase(cfg runConfig, s *server, traced bool) (*phase, error) {
	ph := &phase{}
	reads, edits := encodeOps(cfg.plan.reads, traced), encodeOps(cfg.plan.edits, traced)
	warm := encodeOps(cfg.plan.warm, false)
	c := &client{hc: s.client, base: s.base, keep: func(int) bool { return false }}
	warmRecs, _, _ := c.runClosed(warm, nil, cfg.nproc, 0, time.Hour)
	for _, r := range warmRecs {
		if !r.ok() {
			return nil, fmt.Errorf("warm-up op %d (%s): %v", r.op, r.kind, r.err)
		}
	}
	var err error
	if ph.before, err = s.scrape(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	c = &client{hc: s.client, base: s.base, traced: traced,
		keep: func(i int) bool { return cfg.w.editEvery == 0 && auditSampled(i) }}
	stopSampler := make(chan struct{})
	samples := sampleHost(stopSampler)
	ph.recs, ph.start, ph.elapsed = c.runClosed(reads, edits, cfg.nproc, cfg.w.editEvery, time.Duration(cfg.seconds)*time.Second)
	close(stopSampler)
	ph.samples = <-samples
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	if ph.after, err = s.scrape(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if ph.rssMB, err = vmHWM(s.pid()); err != nil {
		return nil, err
	}
	if cfg.w.editEvery > 0 {
		for _, o := range finalQueries(cfg.plan.reads) {
			path, body := o.request()
			answer, err := s.post(path, body)
			if err != nil {
				ph.finalFailures = append(ph.finalFailures, err.Error())
			}
			ph.final = append(ph.final, answer)
		}
	}
	sort.Slice(ph.recs, func(i, j int) bool { return ph.recs[i].op < ph.recs[j].op })
	var late []float64
	for _, r := range ph.recs {
		if r.kind == opEdit {
			ph.editRecs = append(ph.editRecs, r)
			late = append(late, ms(r.sent-r.due))
		} else {
			ph.queryRecs = append(ph.queryRecs, r)
		}
		if !r.ok() {
			ph.failed++
		}
		if r.wrong {
			ph.wrong++
		}
	}
	if len(late) > 0 {
		ph.lateP99Ms = quantile(late, 0.99)
	}
	ph.hits, ph.lookups = countHits(ph.queryRecs, cfg.plan.reads)
	return ph, nil
}

// The timed phase is cut into windows equal slices by completion time.
// p50_ms, p99_ms and throughput_rps leave out the slices in which the
// hypervisor stole more than stealLimit of the host's CPU, but keep at
// least minQuiet slices, those with the least steal. On a shared VM, steal
// comes in episodes of seconds that stretch every request they cover;
// leaving them out measures the program rather than its neighbours. Each
// phase samples the host's counters for this (sampleHost).
const (
	windows    = 10
	minQuiet   = 6
	stealLimit = 0.02
)

// windowSteal is the host's steal share in each slice of the phase.
func (ph *phase) windowSteal() []float64 {
	d := ph.elapsed / windows
	out := make([]float64, windows)
	for i := range out {
		a := ph.start.Add(time.Duration(i) * d)
		out[i] = stealBetween(ph.samples, a, a.Add(d))
	}
	return out
}

// quiet returns the latencies in ms of the answered query requests that
// completed in the quiet slices, and the time those slices cover.
func (ph *phase) quiet() ([]float64, time.Duration) {
	d := ph.elapsed / windows
	lat := make([][]float64, windows)
	for _, r := range ph.queryRecs {
		if r.ok() {
			i := min(int(r.end/d), windows-1)
			lat[i] = append(lat[i], ms(r.latency()))
		}
	}
	steal := ph.windowSteal()
	order := make([]int, windows)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	keep := minQuiet
	for keep < windows && steal[order[keep]] <= stealLimit {
		keep++
	}
	var out []float64
	for _, i := range order[:keep] {
		out = append(out, lat[i]...)
	}
	return out, time.Duration(keep) * d
}

// p50 is the median latency of the answered query requests in the quiet
// slices.
func (ph *phase) p50() float64 {
	lat, _ := ph.quiet()
	return median(lat)
}

// throughput is correct query answers per second of the quiet slices.
func (ph *phase) throughput() float64 {
	lat, d := ph.quiet()
	return float64(len(lat)) / d.Seconds()
}

// countHits reads the hit ratio's terms from the answers' cached flags:
// one lookup per single, topk, stream or certified request and one per
// batch slot, over the requests answered. The server's own cache counters
// are no use here: a one-slot batch that falls through to the fan-out
// path counts two misses there.
func countHits(recs []rec, reads []op) (hits, lookups int) {
	for _, r := range recs {
		if r.ok() && r.kind != opEdit {
			hits += r.hits
			lookups += reads[r.op].queries()
		}
	}
	return hits, lookups
}

// audit checks the phase's sampled answers (read-only workloads) or its
// post-churn fixed query set (churn-closed) against an in-process engine.
func audit(cfg runConfig, ph *phase) {
	a := newAuditor(cfg.g)
	fail := func(format string, args ...any) {
		ph.auditFailures = append(ph.auditFailures, fmt.Sprintf(format, args...))
	}
	for _, r := range ph.queryRecs {
		if r.body == nil || !r.ok() {
			continue
		}
		ph.auditedAnswers++
		if err := a.check(cfg.plan.reads[r.op], r.body); err != nil {
			fail("op %d (%s): %v", r.op, r.kind, err)
		}
	}
	if cfg.w.editEvery == 0 {
		return
	}
	// The server applied the edit batches in stream order from one writer;
	// the reference applies the same batches in the same order.
	for _, r := range ph.editRecs {
		if !r.ok() {
			fail("edit batch %d failed: %v", r.op, r.err)
			return
		}
		if _, err := a.ref.ApplyEdits(editsOf(cfg.plan.edits[r.op-len(cfg.plan.reads)])...); err != nil {
			fail("reference ApplyEdits: %v", err)
			return
		}
	}
	for _, f := range ph.finalFailures {
		fail("final query: %s", f)
	}
	for i, o := range finalQueries(cfg.plan.reads) {
		ph.auditedAnswers++
		if ph.final[i] == nil {
			continue
		}
		if err := a.check(o, ph.final[i]); err != nil {
			fail("after churn: %v", err)
		}
	}
}

// untracedRun sets up setupRuns fresh servers (setup_s is their median),
// drives the timed phase on the last, and audits its answers.
func untracedRun(cfg runConfig) (result, []string, error) {
	var setups []float64
	var s *server
	for i := 0; i < setupRuns; i++ {
		s.stop()
		var d time.Duration
		var err error
		s, d, err = setup(cfg.bin, filepath.Join(cfg.out, "simserve-"+cfg.w.name+".log"), cfg.nproc, cfg.graphJS, cfg.w)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	ph, err := runPhase(cfg, s, false)
	s.stop()
	if err != nil {
		return result{}, nil, err
	}
	debug.FreeOSMemory()
	audit(cfg, ph)
	res := newResult(ph)
	for _, d := range append(append([]metricDef(nil), endToEnd...), routeMetrics...) {
		res.Metrics[d.name] = metric{Unit: d.unit, absent: true}
	}
	set := func(name string, v float64) {
		m := res.Metrics[name]
		m.Value, m.absent = v, false
		res.Metrics[name] = m
	}
	set("setup_s", median(setups))
	set("server_rss_mb", ph.rssMB)
	// Latency and size figures come from answered requests only: a shed
	// or failed request returns in microseconds and would flatter them.
	// It still counts against slo_frac, fail_frac and correct.
	var lat, topk, batch, first, edit []float64
	var bytes float64
	inSLO := 0
	for _, r := range ph.queryRecs {
		if !r.ok() {
			continue
		}
		l := ms(r.latency())
		lat = append(lat, l)
		bytes += float64(r.bytes)
		limit := sloQuery
		switch r.kind {
		case opTopK, opCert:
			topk = append(topk, l)
		case opBatch:
			batch = append(batch, l)
			limit = sloBatch
		case opStream:
			first = append(first, ms(r.entry-r.sent))
		}
		if r.latency() <= limit {
			inSLO++
		}
	}
	for _, r := range ph.editRecs {
		if r.ok() {
			edit = append(edit, ms(r.latency()))
		}
	}
	n := len(lat)
	quiet, _ := ph.quiet()
	set("throughput_rps", ph.throughput())
	set("p50_ms", median(quiet))
	p, ok := tailPercentile(len(quiet))
	if ok {
		set("p99_ms", quantile(quiet, p))
	}
	set("resp_bytes", bytes/float64(max(n, 1)))
	set("slo_frac", float64(inSLO)/float64(max(len(ph.queryRecs), 1)))
	set("fail_frac", float64(res.Failed)/float64(max(res.Attempted, 1)))
	for name, xs := range map[string][]float64{"topk_p50_ms": topk, "batch_p50_ms": batch, "stream_first_ms": first, "edit_p50_ms": edit} {
		if len(xs) > 0 {
			set(name, median(xs))
		}
	}
	notes := []string{
		fmt.Sprintf("setup_s runs: %v", roundAll(setups)),
		fmt.Sprintf("steal by slice: %v; p50_ms, p99_ms and throughput_rps leave out those above %g, keeping at least %d", roundAll(ph.windowSteal()), stealLimit, minQuiet),
		fmt.Sprintf("whole phase: p50 %.4f ms, p99 %.4f ms, %.2f answers/s", median(lat), quantile(lat, 0.99), float64(n)/ph.elapsed.Seconds()),
		fmt.Sprintf("p99_ms is the p%g of %d answered query latencies in the quiet slices (%d beyond it); edit writer lateness p99 %.3f ms; hit ratio %.3f",
			p*100, len(quiet), len(quiet)-int(p*float64(len(quiet))), ph.lateP99Ms, ratio(ph.hits, ph.lookups)),
	}
	if p != 0.99 {
		notes = append(notes, fmt.Sprintf("WARNING: %d samples support only p%g; p99_ms reports that percentile", len(quiet), p*100))
	}
	notes = append(notes, kindSummary(ph.recs)...)
	var perSec []string
	counts := map[int]int{}
	for _, r := range ph.queryRecs {
		counts[int(r.end/time.Second)]++
	}
	for s := 0; s < cfg.seconds; s++ {
		perSec = append(perSec, fmt.Sprint(counts[s]))
	}
	notes = append(notes, "answers by second: "+strings.Join(perSec, " "))
	return res, append(notes, auditNotes(ph)...), nil
}

// kindSummary prints each request kind's latency quantiles and hits.
func kindSummary(recs []rec) []string {
	lat := map[opKind][]float64{}
	hits := map[opKind]int{}
	for _, r := range recs {
		lat[r.kind] = append(lat[r.kind], ms(r.latency()))
		hits[r.kind] += r.hits
	}
	var out []string
	for k := opKind(0); k < numKinds; k++ {
		if xs := lat[k]; len(xs) > 0 {
			out = append(out, fmt.Sprintf("  %-6s n=%-5d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms cached=%d",
				k, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99), quantile(xs, 1), hits[k]))
		}
	}
	return out
}

// newResult fails the run on any failed request as well as on a wrong
// answer: every workload is built so that nothing is shed or refused.
func newResult(ph *phase) result {
	return result{
		Correct:   len(ph.auditFailures) == 0 && ph.wrong == 0 && ph.failed == 0,
		Attempted: len(ph.recs) + ph.auditedAnswers,
		Failed:    ph.failed + len(ph.auditFailures),
		Metrics:   map[string]metric{},
		lateP99Ms: ph.lateP99Ms,
	}
}

func auditNotes(ph *phase) []string {
	notes := []string{fmt.Sprintf("audit: %d answers checked against the in-process engine, %d failures", ph.auditedAnswers, len(ph.auditFailures))}
	for i, f := range ph.auditFailures {
		if i == 10 {
			notes = append(notes, fmt.Sprintf("  ... %d more", len(ph.auditFailures)-10))
			break
		}
		notes = append(notes, "  AUDIT FAILURE: "+f)
	}
	for _, r := range ph.recs {
		if !r.ok() {
			notes = append(notes, fmt.Sprintf("  first failed request: op %d (%s): %v", r.op, r.kind, r.err))
			break
		}
	}
	return notes
}

// tracedRun is the separate traced run. It drives the same op stream twice
// over HTTP on fresh servers, untraced and then with client spans, and
// compares the two for the tracing overhead; then it replays the stream in
// process through the engine's entry points and its staged-trace entry
// points, and times direct calls into the kernel, sweep and graph layers.
func tracedRun(cfg runConfig, runStart time.Time) (result, []string, error) {
	logPath := filepath.Join(cfg.out, "simserve-"+cfg.w.name+"-traced.log")
	var phases [2]*phase
	for i := range phases {
		s, _, err := setup(cfg.bin, logPath, cfg.nproc, cfg.graphJS, cfg.w)
		if err != nil {
			return result{}, nil, err
		}
		phases[i], err = runPhase(cfg, s, i == 1)
		s.stop()
		if err != nil {
			return result{}, nil, err
		}
	}
	untraced, ph := phases[0], phases[1]
	phases[0] = nil
	debug.FreeOSMemory()
	audit(cfg, ph)

	tr := &tracer{t0: runStart}
	tr.recordHTTP(ph.start, ph.recs)
	order := replayOrder(cfg.plan.reads, cfg.plan.edits, ph.recs)
	budget := time.Duration(cfg.seconds) * time.Second / 2
	prime := append(warmupQueries(cfg.w), cfg.plan.warm...)
	blocked, groups, refresh, n := tr.replayEntry(cfg.g, prime, order, budget)
	debug.FreeOSMemory()
	tr.replayStages(cfg.g, prime, order[:n])
	debug.FreeOSMemory()
	var sentEdits []op
	for _, r := range ph.editRecs {
		sentEdits = append(sentEdits, cfg.plan.edits[r.op-len(cfg.plan.reads)])
	}
	ls := tr.layerCalls(cfg.g, missedSources(cfg.plan.reads, ph.queryRecs, batchSlots), sentEdits)
	spansPath := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := tr.write(spansPath); err != nil {
		return result{}, nil, err
	}

	res := newResult(ph)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Unit: d.unit, absent: true}
	}
	set := func(name string, v float64) {
		m := res.Metrics[name]
		m.Value, m.absent = v, false
		res.Metrics[name] = m
	}
	setMs := func(name string, xs []time.Duration, stat func([]float64) float64, scale float64) {
		if len(xs) == 0 {
			return
		}
		f := make([]float64, len(xs))
		for i, x := range xs {
			f[i] = float64(x) / scale
		}
		set(name, stat(f))
	}

	// simserve: client spans and server counters of the traced HTTP phase.
	var ttfb, body []time.Duration
	var assemble []time.Duration
	shed := 0
	for _, r := range ph.queryRecs {
		if r.first > 0 {
			ttfb = append(ttfb, r.first-r.sent)
			body = append(body, r.end-r.first)
		}
		if r.status == 429 || r.status == 503 {
			shed++
		}
		for _, s := range r.spans {
			if s.Stage == "assemble" {
				assemble = append(assemble, time.Duration(s.DurationUs*1e3))
			}
		}
	}
	setMs("simserve.ttfb_ms", ttfb, median, 1e6)
	setMs("simserve.body_ms", body, median, 1e6)
	var srv histDelta
	var routeNotes []string
	for _, route := range []string{"single", "topk", "batch"} {
		h := histogramDelta(ph.before, ph.after, "simserve_request_seconds", `{route="`+route+`"}`)
		srv.sum += h.sum
		srv.count += h.count
		if h.count > 0 {
			routeNotes = append(routeNotes, fmt.Sprintf("%s %.3f ms (n=%.0f)", route, h.meanMs(), h.count))
		}
	}
	set("simserve.server_ms", srv.meanMs())
	set("simserve.queue_wait_ms", histogramDelta(ph.before, ph.after, "simstar_queue_wait_seconds", "").meanMs())
	set("simserve.shed", float64(shed))
	set("simserve.cpu_ms_per_req", ms(ph.cpu)/float64(max(len(ph.recs), 1)))

	// simstar: the in-process replay.
	self := tr.selfTimes("engine")
	var calls []time.Duration
	for name, ds := range self {
		if name != "simstar.ApplyEdits" {
			calls = append(calls, ds...)
		}
	}
	setMs("simstar.call_ms", calls, median, 1e6)
	stages := tr.selfTimes("stages")
	queries := 0
	for _, name := range []string{"stage.single", "stage.topk", "stage.stream", "stage.cert", "stage.slot"} {
		queries += len(stages[name])
	}
	perQuery := func(name, stage string, scale float64) {
		var sum time.Duration
		for _, d := range stages[stage] {
			sum += d
		}
		if queries > 0 {
			set(name, float64(sum)/float64(queries)/scale)
		}
	}
	perQuery("simstar.plan_us", "simstar.plan", 1e3)
	perQuery("simstar.cache_us", "simstar.cache", 1e3)
	perQuery("simstar.kernel_ms", "simstar.kernel", 1e6)
	perQuery("simstar.select_us", "simstar.select", 1e3)
	setMs("simstar.assemble_us", assemble, mean, 1e3)
	set("simstar.hit_ratio", ratio(ph.hits, ph.lookups))
	lookups := metricDelta(ph.before, ph.after, "simstar_queries_total{")
	if lookups > 0 {
		set("simstar.pool_misses", metricDelta(ph.before, ph.after, "simstar_workspace_pool_misses_total")/lookups*1e3)
	}
	setMs("simstar.refresh_ms", refresh, mean, 1e6)
	if groups > 0 {
		set("simstar.blocked_share", float64(blocked)/float64(groups))
	}

	// core, rwr, sparse, graph: direct calls.
	setMs("core.geo_ms", ls.geo, median, 1e6)
	setMs("core.exp_ms", ls.exp, median, 1e6)
	setMs("rwr.ms", ls.rwrT, median, 1e6)
	setMs("core.sieved_ms", ls.sieved, median, 1e6)
	setMs("core.block16_ms", ls.block16, median, 1e6)
	if len(ls.nnzFrac) > 0 {
		set("core.nnz_frac", mean(ls.nnzFrac))
		set("core.sweeps", mean(ls.sweeps))
	}
	setMs("sparse.scatter_us", ls.scatter, median, 1e3)
	setMs("sparse.horner_us", ls.horner, median, 1e3)
	set("sparse.bytes_per_sweep", ls.bytesPerSweep)
	setMs("sparse.update_ms", ls.update, mean, 1e6)
	setMs("graph.apply_ms", ls.apply, mean, 1e6)

	if cfg.w.editEvery > 0 {
		set("loadgen.late_p99_ms", ph.lateP99Ms)
	}
	set("host.steal_frac", 0) // filled in over the whole run by the caller
	set("trace.overhead_frac", ph.p50()/untraced.p50()-1)

	notes := []string{
		fmt.Sprintf("traced HTTP phase: %d requests; untraced p50 %.3f ms, %.1f req/s; traced p50 %.3f ms, %.1f req/s",
			len(ph.recs), untraced.p50(), untraced.throughput(), ph.p50(), ph.throughput()),
		fmt.Sprintf("in-process replay: %d of %d ops through the engine entry points, then through the staged-trace entry points (%d queries)",
			n, len(order), queries),
		fmt.Sprintf("direct layer calls on %d missed sources and %d edit batches; sparse.bytes_per_sweep is computed from nnz and n, not measured", len(ls.geo), len(ls.apply)),
		"simserve.server_ms by route: " + strings.Join(routeNotes, ", "),
		"spans: " + spansPath,
		"one request per route, split by layer (self times; remainder = what no span explains):",
	}
	notes = append(notes, tr.breakdown()...)
	return res, append(notes, auditNotes(ph)...), nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

func absentNames(res result) []string {
	var out []string
	for name, m := range res.Metrics {
		if m.absent {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// printTable prints every metric of the run by name with its unit.
func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	order := map[string]int{}
	for i, d := range append(append(append([]metricDef(nil), endToEnd...), routeMetrics...), perLayer...) {
		order[d.name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, name := range names {
		m := res.Metrics[name]
		if m.absent {
			fmt.Fprintf(w, "  %-24s %14s  %s\n", name, "absent", m.Unit)
		} else {
			fmt.Fprintf(w, "  %-24s %14.6g  %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  correct=%t attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// treeHash identifies the measured build by content: a SHA-256 over the
// paths and bytes of every Go source and module file under root, skipping
// dot directories (build output, run records). It needs no git checkout.
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
