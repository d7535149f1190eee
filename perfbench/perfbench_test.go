package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestOpStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := makePlan(w, 7, 3), makePlan(w, 7, 3)
		if a.checksum() != b.checksum() {
			t.Errorf("%s: same seed, checksums %016x and %016x", w.name, a.checksum(), b.checksum())
		}
		if c := makePlan(w, 8, 3); c.checksum() == a.checksum() {
			t.Errorf("%s: seeds 7 and 8 give the same op stream", w.name)
		}
		if len(a.reads) == 0 {
			t.Errorf("%s: no reads", w.name)
		}
	}
	// The op stream is part of the benchmark's definition: a change to the
	// generator must show here and be called out, since it re-baselines
	// every workload.
	w, _ := workloadByName("topk-hot")
	if got, want := makePlan(w, defaultSeed, 10).checksum(), uint64(goldenTopKHot); got != want {
		t.Errorf("topk-hot seed %d checksum = %016x, want %016x", defaultSeed, got, want)
	}
}

// goldenTopKHot pins the topk-hot op stream at the default seed over 10 s.
const goldenTopKHot = 0xd61b813d6dfe10c1

func TestOpStreamShape(t *testing.T) {
	w, _ := workloadByName("churn-closed")
	p := makePlan(w, 3, 4)
	if len(p.reads) != w.budget*4 || len(p.edits) != len(p.reads)/churnEvery {
		t.Fatalf("churn-closed over 4 s: %d reads, %d edits", len(p.reads), len(p.edits))
	}
	for j, e := range p.edits {
		wantDel := 0
		if j >= 8 {
			wantDel = churnBatch / 2
		}
		if len(e.insert) != churnBatch/2 || len(e.del) != wantDel {
			t.Errorf("edit %d: %d inserts, %d deletions", j, len(e.insert), len(e.del))
		}
	}
	counts := map[opKind]int{}
	for _, o := range genReads(w, 3, "timed", 20_000) {
		counts[o.kind]++
		if o.kind == opBatch && len(o.batch) != batchSlots {
			t.Fatalf("batch with %d slots", len(o.batch))
		}
	}
	for k, pct := range hotMix {
		if got := float64(counts[opKind(k)]) / 200; pct > 0 && (got < float64(pct)-2 || got > float64(pct)+2) {
			t.Errorf("%s: %.1f%% of reads, mix says %d%%", opKind(k), got, pct)
		}
	}
}

func TestReplayOrder(t *testing.T) {
	reads := []op{{kind: opTopK}, {kind: opBatch}, {kind: opStream}, {kind: opTopK}}
	edits := []op{{kind: opEdit}, {kind: opEdit}}
	// Two connections: reads 0–2 and the first edit were sent, read 3 and
	// the second edit were not.
	recs := []rec{
		{op: 1, sent: 2 * time.Millisecond},
		{op: 4, sent: 5 * time.Millisecond},
		{op: 0, sent: 1 * time.Millisecond},
		{op: 2, sent: 9 * time.Millisecond},
	}
	var ids []int
	for _, o := range replayOrder(reads, edits, recs) {
		ids = append(ids, o.id)
		if (o.id >= len(reads)) != (o.kind == opEdit) {
			t.Errorf("op %d replays as a %s", o.id, o.kind)
		}
	}
	if got, want := ids, []int{0, 1, 4, 2}; !equalInts(got, want) {
		t.Errorf("replay order %v, want %v", got, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100_000, 0.99, true},
		{10_000, 0.99, true},
		{1_000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.9, true},
		{100, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %t; want %v, %t", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("first quartile = %v", q)
	}
}

const scrapeBefore = `# HELP simserve_request_seconds HTTP request latency in seconds, by route.
# TYPE simserve_request_seconds histogram
simserve_request_seconds_bucket{route="topk",le="0.001"} 3
simserve_request_seconds_bucket{route="topk",le="+Inf"} 4
simserve_request_seconds_sum{route="topk"} 0.01
simserve_request_seconds_count{route="topk"} 4
# HELP simstar_queries_total Queries answered.
# TYPE simstar_queries_total counter
simstar_queries_total{kind="batch"} 10
simstar_queries_total{kind="single_source"} 2
`

const scrapeAfter = `# HELP simserve_request_seconds HTTP request latency in seconds, by route.
# TYPE simserve_request_seconds histogram
simserve_request_seconds_bucket{route="topk",le="0.001"} 5
simserve_request_seconds_bucket{route="topk",le="+Inf"} 14
simserve_request_seconds_sum{route="topk"} 0.05
simserve_request_seconds_count{route="topk"} 14
# HELP simstar_queries_total Queries answered.
# TYPE simstar_queries_total counter
simstar_queries_total{kind="batch"} 40
simstar_queries_total{kind="single_source"} 2
simstar_queries_total{kind="stream"} 5
`

func TestMetricsDelta(t *testing.T) {
	before, err := obs.ParseText(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := obs.ParseText(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	h := histogramDelta(before, after, "simserve_request_seconds", `{route="topk"}`)
	if h.count != 10 || h.meanMs() < 3.999 || h.meanMs() > 4.001 {
		t.Errorf("topk delta: %+v, mean %v ms; want 10 requests at 4 ms", h, h.meanMs())
	}
	// A series absent from the first scrape counts from zero.
	if d := metricDelta(before, after, "simstar_queries_total{"); d != 35 {
		t.Errorf("queries delta = %v, want 35", d)
	}
	if h := histogramDelta(before, after, "simstar_queue_wait_seconds", ""); h.count != 0 || h.meanMs() != 0 {
		t.Errorf("missing histogram: %+v", h)
	}
}

func TestHitRatioFromCachedFlags(t *testing.T) {
	top := make([]rankedWire, topK)
	topBody := func(cached bool) []byte {
		b, _ := json.Marshal(map[string]any{"cached": cached, "maxError": 0, "top": top})
		return b
	}
	slots := make([]map[string]any, batchSlots)
	for i := range slots {
		slots[i] = map[string]any{"cached": i < 5, "top": top}
	}
	batchBody, _ := json.Marshal(map[string]any{"results": slots})
	reads := []op{
		{kind: opTopK},
		{kind: opTopK},
		{kind: opBatch, batch: make([]slot, batchSlots)},
		{kind: opSingle},
		{kind: opTopK},
	}
	bodies := [][]byte{
		topBody(true),
		topBody(false),
		batchBody,
		[]byte(`{"measure":"rwr","node":3,"cached":true,"maxError":0,"scores":[0.4,0]}` + "\n"),
		[]byte(`{"error":"overloaded"}`),
	}
	recs := make([]rec, len(reads))
	for i, o := range reads {
		status := 200
		if i == 4 {
			status = 503
		}
		recs[i] = rec{op: i, kind: o.kind}
		recs[i].err = checkBody(o.kind, status, bodies[i], &recs[i])
	}
	if recs[4].ok() {
		t.Fatal("a 503 passed the shape check")
	}
	// A shed request is not a lookup: 1 + 0 + 5 + 1 hits of 1 + 1 + 16 + 1.
	hits, lookups := countHits(recs, reads)
	if hits != 7 || lookups != 19 {
		t.Errorf("hits %d of %d lookups, want 7 of 19", hits, lookups)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, names []struct{ Name, Unit string }) {
		if len(defs) != len(names) {
			t.Errorf("%s: %d printed, %d in BENCHMARK.json", what, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if d.name != names[i].Name || d.unit != names[i].Unit {
				t.Errorf("%s %d: printed %s (%s), BENCHMARK.json has %s (%s)", what, i, d.name, d.unit, names[i].Name, names[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bench.EndToEnd)
	same("per_layer", perLayer, bench.PerLayer)
	// Every defined workload is in BENCHMARK.json, in order.
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	var listed []string
	for _, w := range bench.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(defined, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads defined %v, BENCHMARK.json lists %v", defined, listed)
	}
}

// TestEditsFollowReadCount drives runClosed against a stub server and
// checks that edit j goes out, in order, once read (j+1)·editEvery has
// been handed out, whatever the throughput.
func TestEditsFollowReadCount(t *testing.T) {
	var mu sync.Mutex
	var log []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		log = append(log, string(body))
		mu.Unlock()
		if r.URL.Path == "/v1/edges" {
			io.WriteString(w, `{"refreshed":true}`)
			return
		}
		top := make([]rankedWire, topK)
		json.NewEncoder(w).Encode(map[string]any{"cached": true, "maxError": 0, "top": top})
	}))
	defer srv.Close()
	reads := make([]op, 50)
	for i := range reads {
		reads[i] = op{kind: opTopK, measure: "rwr", node: i}
	}
	edits := genEdits(1, "test", 4)
	c := &client{hc: srv.Client(), base: srv.URL, keep: func(int) bool { return false }}
	recs, _, _ := c.runClosed(encodeOps(reads, false), encodeOps(edits, false), 2, 12, time.Minute)
	if len(recs) != 50+4 {
		t.Fatalf("%d requests, want 50 reads and 4 edits", len(recs))
	}
	nextEdit := 0
	readsBefore := 0
	for _, body := range log {
		if !strings.Contains(body, `"insert"`) {
			readsBefore++
			continue
		}
		want, _ := json.Marshal(map[string]any{"insert": edits[nextEdit].insert, "delete": edits[nextEdit].del})
		if body != string(want) {
			t.Fatalf("edit %d sent out of order", nextEdit)
		}
		// Edit j is triggered when read 12(j+1) is handed out. By then
		// reads 0 to 12(j+1)−1 are handed out too, and with two readers
		// at most one of them can still be on its way.
		if lo := 12 * (nextEdit + 1); readsBefore < lo-1 {
			t.Errorf("edit %d after %d reads, want at least %d", nextEdit, readsBefore, lo-1)
		}
		nextEdit++
	}
	for _, r := range recs {
		if !r.ok() || r.kind == opEdit && r.sent < r.due {
			t.Errorf("op %d (%s): err %v, sent %v before due %v", r.op, r.kind, r.err, r.sent, r.due)
		}
	}
}

// TestQuietSlices checks that p50 and throughput come from answered
// requests in the slices with little steal.
func TestQuietSlices(t *testing.T) {
	// A 1 s phase with one answer per 100 ms slice, slice i's taking i+1
	// ms, and two sheds that return at once.
	start := time.Unix(0, 0)
	ph := &phase{start: start, elapsed: time.Second, failed: 2}
	for i := 0; i < windows; i++ {
		end := time.Duration(100*i+50) * time.Millisecond
		ph.queryRecs = append(ph.queryRecs, rec{sent: end - time.Duration(i+1)*time.Millisecond, end: end})
	}
	ph.queryRecs = append(ph.queryRecs,
		rec{sent: 950 * time.Millisecond, end: 950 * time.Millisecond, err: errStatus},
		rec{sent: 960 * time.Millisecond, end: 960 * time.Millisecond, err: errStatus})
	// Without steal every slice counts: answers of 1 to 10 ms.
	if got := ph.p50(); got < 5.499 || got > 5.501 {
		t.Errorf("no steal: p50 = %v ms, want 5.5", got)
	}
	// Now the host steals half the CPU in slices 0 to 3 and nothing after.
	var stolen uint64
	for i := 0; i <= windows; i++ {
		at := start.Add(time.Duration(i) * 100 * time.Millisecond)
		ph.samples = append(ph.samples, cpuSample{at: at, cpu: hostCPU{total: uint64(100 * i), steal: stolen}})
		if i < 4 {
			stolen += 50
		}
	}
	if steal := ph.windowSteal(); steal[3] != 0.5 || steal[4] != 0 {
		t.Errorf("steal by slice %v", steal)
	}
	// Slices 4 to 9 are the quiet ones: answers of 5 to 10 ms.
	if got := ph.p50(); got < 7.499 || got > 7.501 {
		t.Errorf("p50 = %v ms, want 7.5", got)
	}
	if got := ph.throughput(); got < 9.999 || got > 10.001 {
		t.Errorf("throughput = %v, want 10", got)
	}
	if newResult(ph).Correct {
		t.Error("a run with shed requests reads correct")
	}
}
