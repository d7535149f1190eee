package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/simstar"
)

// The benchmark graph: simbench's `medium` profile topology (the same
// generator and seed as cmd/simbench and cmd/benchjson), so numbers here
// line up with the BENCH_5–9 series. The workload seed never moves it.
const (
	graphNodes  = 100_000
	graphDegree = 3
	graphSeed   = 271828
)

// Query shape shared by every workload.
const (
	topK          = 50
	batchSlots    = 16
	certTolerance = 1e-3
	certMeasure   = simstar.MeasureGeometricMemo
	// churnBatch edits go out per POST /v1/edges in churn-closed: half
	// fresh inserts, half deletions of earlier inserts once the ring has
	// filled.
	churnBatch = 64
)

// benchGraph builds the fixed benchmark graph: local structure behind
// scrambled ids. It returns the edge list too, which is what the server
// receives over POST /v1/graph.
func benchGraph() (*simstar.Graph, [][2]int) {
	rng := rand.New(rand.NewSource(graphSeed))
	shuf := rng.Perm(graphNodes)
	edges := make([][2]int, 0, graphNodes*graphDegree)
	for u := 0; u < graphNodes; u++ {
		for d := 0; d < graphDegree; d++ {
			v := u + 1 + rng.Intn(64)
			if v >= graphNodes {
				v -= graphNodes
			}
			edges = append(edges, [2]int{shuf[u], shuf[v]})
		}
	}
	return simstar.GraphFromEdges(graphNodes, edges), edges
}

// opKind is one request type. Its name doubles as the route label in
// per-route metrics.
type opKind int

const (
	opSingle opKind = iota // POST /v1/query/single, exact dense scores
	opTopK                 // POST /v1/query/topk, exact
	opStream               // POST /v1/query/topk with "stream": true
	opBatch                // POST /v1/query/batch, mode topk, batchSlots slots
	opCert                 // POST /v1/query/topk on certMeasure at certTolerance
	opEdit                 // POST /v1/edges
	numKinds
)

var kindNames = [numKinds]string{"single", "topk", "stream", "batch", "cert", "edit"}

func (k opKind) String() string { return kindNames[k] }

// readMeasures are the exact measures every read draws from, evenly.
var readMeasures = []string{simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR}

type slot struct {
	Measure string `json:"measure"`
	Node    int    `json:"node"`
	K       int    `json:"k"`
}

// op is one pre-generated request.
type op struct {
	kind    opKind
	measure string
	node    int
	batch   []slot
	insert  [][2]int
	del     [][2]int
}

// workload is one named traffic mix.
type workload struct {
	name string
	// mix is the share of each read kind, in percent.
	mix [numKinds]int
	// zipfS > 0 draws sources from a zipf law of that exponent over a
	// seeded permutation of the nodes; 0 draws them uniformly.
	zipfS float64
	// warmOps reads run untimed before the timed phase to fill the cache.
	warmOps int
	// editEvery > 0 sends one churnBatch-edit POST /v1/edges each time
	// another editEvery reads of the timed stream have been handed out.
	editEvery int
	// budget bounds the generated stream in reads per second of the timed
	// phase; it is far above what the workload reaches.
	budget int
}

// hotMix is the topk-hot read mix, shared with churn-closed.
var hotMix = [numKinds]int{opTopK: 40, opStream: 25, opBatch: 10, opCert: 25}

// hotZipf is the source skew of topk-hot and churn-closed. Over 100k
// nodes and four cache keys per node (three exact measures plus the
// certified one) it keeps the hot set inside the 256-entry result cache:
// the cached flags read a hit ratio of about 0.99 on topk-hot. It also
// keeps the set of keys each churn epoch recomputes small; at exponent 1.5
// or 2.0 the post-epoch recompute stalls moved the churn tails by a
// quarter or more between seeds.
const hotZipf = 2.5

// churnEvery is churn-closed's epoch length in reads: about one epoch per
// second at the mix's throughput on a 2-CPU host. Counting epochs in reads
// rather than seconds fixes the share of reads that land in the recompute
// stall after each epoch, so the tail does not move with throughput.
const churnEvery = 300

var workloads = []workload{
	{
		name:   "scores-uniform",
		mix:    [numKinds]int{opSingle: 100},
		budget: 1_000,
	},
	{
		name:    "topk-hot",
		mix:     hotMix,
		zipfS:   hotZipf,
		warmOps: 600,
		budget:  5_000,
	},
	{
		name:      "churn-closed",
		mix:       hotMix,
		zipfS:     hotZipf,
		warmOps:   600,
		editEvery: churnEvery,
		budget:    5_000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// streamSeed folds a stream name into the workload seed, so the timed,
// warm-up and edit streams are independent draws of one seed.
func streamSeed(seed int64, w, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(w))
	h.Write([]byte{0})
	h.Write([]byte(stream))
	return seed*1_000_003 ^ int64(h.Sum64()&(1<<62-1))
}

// sourceSampler draws query nodes for one stream.
type sourceSampler struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newSourceSampler(rng *rand.Rand, s float64) *sourceSampler {
	ss := &sourceSampler{rng: rng}
	if s > 0 {
		ss.perm = rng.Perm(graphNodes)
		ss.zipf = rand.NewZipf(rng, s, 1, graphNodes-1)
	}
	return ss
}

func (s *sourceSampler) node() int {
	if s.zipf == nil {
		return s.rng.Intn(graphNodes)
	}
	return s.perm[s.zipf.Uint64()]
}

// mixBlock is the length of one stratum of the op stream. Every block of
// mixBlock reads holds each kind exactly mix/5 times, and every block of
// len(readMeasures) reads each measure once, in seeded order. Random draws
// would let the share of batches or of rwr queries drift by a few percent
// between seeds, and that drift alone moved resp_bytes and the latency
// tails more than the bounds allow.
const mixBlock = 20

// genReads produces count reads of w's mix: a pure function of
// (workload, seed, stream, count).
func genReads(w workload, seed int64, stream string, count int) []op {
	rng := rand.New(rand.NewSource(streamSeed(seed, w.name, stream)))
	src := newSourceSampler(rng, w.zipfS)
	var kinds []opKind
	for k := opKind(0); k < opEdit; k++ {
		for j := 0; j < w.mix[k]*mixBlock/100; j++ {
			kinds = append(kinds, k)
		}
	}
	measures := append([]string(nil), readMeasures...)
	ops := make([]op, count)
	for i := range ops {
		if i%mixBlock == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		if i%len(measures) == 0 {
			rng.Shuffle(len(measures), func(a, b int) { measures[a], measures[b] = measures[b], measures[a] })
		}
		kind := kinds[i%mixBlock]
		o := op{kind: kind, measure: measures[i%len(measures)], node: src.node()}
		switch kind {
		case opCert:
			o.measure = certMeasure
		case opBatch:
			o.batch = make([]slot, batchSlots)
			for j := range o.batch {
				o.batch[j] = slot{Measure: readMeasures[j%len(readMeasures)], Node: src.node(), K: topK}
			}
		}
		ops[i] = o
	}
	return ops
}

// genEdits produces count edit batches in the ring shape of simbench's
// churnStream: each batch inserts churnBatch/2 random edges and, once more
// than 4·churnBatch inserts are live, deletes the churnBatch/2 oldest.
func genEdits(seed int64, wname string, count int) []op {
	rng := rand.New(rand.NewSource(streamSeed(seed, wname, "edits")))
	var live [][2]int
	ops := make([]op, count)
	for j := range ops {
		o := op{kind: opEdit}
		for i := 0; i < churnBatch/2; i++ {
			o.insert = append(o.insert, [2]int{rng.Intn(graphNodes), rng.Intn(graphNodes)})
		}
		live = append(live, o.insert...)
		if len(live) > 4*churnBatch {
			o.del = append(o.del, live[:churnBatch/2]...)
			live = append(live[:0:0], live[churnBatch/2:]...)
		}
		ops[j] = o
	}
	return ops
}

// plan is everything a run sends, generated before any clock starts.
type plan struct {
	warm  []op
	reads []op
	edits []op
}

func makePlan(w workload, seed int64, seconds int) plan {
	p := plan{
		warm:  genReads(w, seed, "warm", w.warmOps),
		reads: genReads(w, seed, "timed", w.budget*seconds),
	}
	if w.editEvery > 0 {
		p.edits = genEdits(seed, w.name, len(p.reads)/w.editEvery)
	}
	return p
}

// checksum is an FNV-64a digest of every generated op, in order.
func (p plan) checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, list := range [][]op{p.warm, p.reads, p.edits} {
		wr(uint64(len(list)))
		for _, o := range list {
			wr(uint64(o.kind))
			h.Write([]byte(o.measure))
			wr(uint64(o.node))
			for _, s := range o.batch {
				h.Write([]byte(s.Measure))
				wr(uint64(s.Node))
			}
			for _, e := range append(o.insert, o.del...) {
				wr(uint64(e[0]))
				wr(uint64(e[1]))
			}
		}
	}
	return h.Sum64()
}

// request is an op's wire form.
func (o op) request() (path string, body []byte) {
	var v any
	switch o.kind {
	case opSingle:
		path, v = "/v1/query/single", map[string]any{"measure": o.measure, "node": o.node}
	case opTopK:
		path, v = "/v1/query/topk", map[string]any{"measure": o.measure, "node": o.node, "k": topK}
	case opStream:
		path, v = "/v1/query/topk", map[string]any{"measure": o.measure, "node": o.node, "k": topK, "stream": true}
	case opCert:
		path, v = "/v1/query/topk", map[string]any{"measure": o.measure, "node": o.node, "k": topK, "tolerance": certTolerance}
	case opBatch:
		path, v = "/v1/query/batch", map[string]any{"mode": "topk", "queries": o.batch}
	case opEdit:
		path, v = "/v1/edges", map[string]any{"insert": o.insert, "delete": o.del}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of ints, strings and floats
	}
	return path, body
}

// queries is the number of engine queries an op asks for: its cache
// lookups, for the hit ratio's denominator.
func (o op) queries() int {
	switch o.kind {
	case opBatch:
		return len(o.batch)
	case opEdit:
		return 0
	}
	return 1
}
