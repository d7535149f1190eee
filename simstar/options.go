package simstar

import (
	"fmt"
	"time"

	"repro/internal/biclique"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/prank"
	"repro/internal/rwr"
	"repro/internal/simrank"
	"repro/internal/sparse"
	"repro/internal/sparsesim"
)

// Option configures a Measure or an Engine. The one functional-option set
// replaces the per-package options structs the measures used to take; each
// measure reads the fields it understands and ignores the rest.
type Option func(*config)

// config carries every tunable across the measure family. Zero values mean
// "use the paper's default" (C=0.6, K=5, λ=0.5, δ=1e-4), resolved by each
// measure's own defaulting so simstar and direct internal calls agree.
type config struct {
	c         float64
	k         int
	eps       float64
	sieve     float64
	tolerance float64
	lambda    float64
	delta     float64
	rank      int
	miner     MinerOptions
	// Engine-only knobs. These shape how queries are served, never what
	// they return, and are therefore excluded from result-cache keys
	// (see (config).cacheParams). The graph *content* a query sees is
	// versioned separately, by the epoch field of the cache key.
	workers        int
	parallelSweeps int
	cacheSize      int
	epochInterval  int
	baseEpoch      uint64
	relabel        RelabelMode
	observer       *Observer
	deadline       time.Duration
	fault          *faultHook
}

// cacheParams strips the serving knobs so that two configs computing the
// same numbers share one result-cache key regardless of worker count,
// cache capacity, or epoch policy. Tolerances below MinTolerance normalise
// to 0 for the same reason: the kernel drops nothing below it, so their
// results are the exact results — a distinct key would fragment the cache
// and dodge the exact-donor probe.
//
// The directive below is the machine-checked contract (simlint's cachekey
// analyzer): every field stripped here must be listed, and anything not
// listed must ride into the cache key untouched. Add a field to the list
// only if it can never change what a query returns.
//
//simstar:cachekey-exempt workers parallelSweeps cacheSize epochInterval baseEpoch relabel observer deadline fault
func (cfg config) cacheParams() config {
	cfg.workers = 0
	// Intra-query sweep parallelism is row-range partitioned with per-element
	// accumulation order preserved, so results are bitwise-identical at every
	// worker count — a serving knob.
	cfg.parallelSweeps = 0
	cfg.cacheSize = 0
	cfg.epochInterval = 0
	cfg.baseEpoch = 0
	// Observation never changes what a query returns.
	cfg.observer = nil
	// Relabeling changes the internal layout, never the translated scores;
	// cached vectors are stored in external id order, so the mode is a
	// serving knob here. The layout *instance* is still versioned, by the
	// cache key's layout generation (see cacheKey).
	cfg.relabel = RelabelNone
	// A deadline bounds how long a query may run, never what it returns when
	// it completes — a query that beat its budget produced the exact same
	// scores an unbounded run would have.
	cfg.deadline = 0
	// Fault injection perturbs scheduling (delays) or aborts queries
	// (panics, surfaced as ErrKernelPanic); a query that survives to return
	// a result returns the unperturbed result.
	cfg.fault = nil
	if cfg.tolerance < MinTolerance {
		cfg.tolerance = 0
	}
	return cfg
}

// MinerOptions controls the biclique miner behind the memoized SimRank*
// variants and the Engine's cached compression.
type MinerOptions struct {
	// MinSources and MinTargets bound biclique dimensions (both >= 2;
	// smaller bicliques never save edges).
	MinSources, MinTargets int
	// Passes is the number of pair-seeded greedy sweeps; 0 means the default.
	Passes int
	// MaxPairsPerNode caps source pairs enumerated per node; 0 = default.
	MaxPairsPerNode int
	// DisablePairMining keeps only the identical-set pass.
	DisablePairMining bool
}

func (m MinerOptions) internal() biclique.Options {
	return biclique.Options{
		MinSources:        m.MinSources,
		MinTargets:        m.MinTargets,
		Passes:            m.Passes,
		MaxPairsPerNode:   m.MaxPairsPerNode,
		DisablePairMining: m.DisablePairMining,
	}
}

// WithC sets the damping factor in (0, 1). Default 0.6.
func WithC(c float64) Option { return func(cfg *config) { cfg.c = c } }

// WithK sets the iteration count (series truncation length). Default 5.
// Ignored when WithEps selects the count from the error bounds.
func WithK(k int) Option { return func(cfg *config) { cfg.k = k } }

// IterationsError is the error a query fails with when its effective
// iteration count — from WithK, or derived from WithEps — is past Max, the
// first K with C^(K+1) < 2⁻⁵³ at the query's damping factor C. Lemma 3
// bounds the truncation error by C^(K+1), so every further term is below
// float64 resolution: a larger K would only burn O(K²) sweeps (and grow the
// workspace by K vectors) without changing the answer. The engine refuses
// such a query before running any kernel rather than clamping K silently.
type IterationsError struct {
	// K is the effective iteration count the query asked for.
	K int
	// Max is the largest iteration count worth running at the query's C.
	Max int
}

// Error reports K and the cap; simserve returns it verbatim with a 400.
func (e *IterationsError) Error() string {
	return fmt.Sprintf("simstar: iteration count K = %d exceeds the cap of %d for this damping factor (further terms are below float64 resolution)", e.K, e.Max)
}

// WithEps derives the iteration count from the convergence bounds instead
// of WithK: the smallest K with Cᵏ⁺¹ <= eps (geometric) or
// Cᵏ⁺¹/(k+1)! <= eps (exponential).
func WithEps(eps float64) Option { return func(cfg *config) { cfg.eps = eps } }

// WithSieve zeroes result entries below the threshold after the final
// iteration (the paper clips at 1e-4 to save space).
func WithSieve(eps float64) Option { return func(cfg *config) { cfg.sieve = eps } }

// MinTolerance is the smallest tolerance WithTolerance honours: below it
// (including the zero default) the frontier kernel drops nothing, so
// queries are exact — bitwise the dense reference kernels — and report a
// zero MaxError certificate.
const MinTolerance = sparse.MinCertTolerance

// WithTolerance gives the Engine's frontier kernel an error budget: each
// sweep drops frontier entries too small to move any score by more than
// the remaining budget, and the result carries a certified bound
// MaxError <= eps on the element-wise deviation from the exact answer. The
// default (0) and any eps below MinTolerance drop nothing: the same kernel
// answers exactly, with a zero certificate. Only the Engine fast-path
// measures (geometric and exponential SimRank*, their memo variants, and
// RWR) run the frontier kernel; other measures ignore the tolerance and
// answer exactly. The tolerance is part of the result-cache key: an
// approximate entry can only be re-served to requests with the identical
// tolerance (exact entries satisfy any tolerance).
func WithTolerance(eps float64) Option { return func(cfg *config) { cfg.tolerance = eps } }

// RelabelMode selects the cache-conscious node relabeling an Engine applies
// to its preprocessed transition matrices (see WithRelabeling).
type RelabelMode int

// The relabeling modes.
const (
	// RelabelNone serves the matrices in the graph's natural node order.
	RelabelNone RelabelMode = iota
	// RelabelDegree numbers nodes by descending total degree, clustering
	// the hub rows and the hot entries of every iteration vector at the
	// front of memory.
	RelabelDegree
	// RelabelRCM applies a reverse Cuthill–McKee order over the undirected
	// closure, minimising how far a sweep's gathers stray from the rows it
	// just touched. The best default for graphs with community or locality
	// structure.
	RelabelRCM
)

// WithRelabeling makes the Engine relabel the nodes of its cached transition
// matrices for cache locality: the permutation is computed once per graph
// epoch at preprocessing time, the single-source, top-k and batch fast paths
// run on the permuted operators, and node ids are translated at the API
// boundary — queries and results always speak the graph's own ids, and the
// scores match the unrelabelled engine to within float reassociation noise
// (≤ 1e-12, tested). All-pairs queries and non-fast-path measures run on the
// natural order and are unaffected.
//
// Like WithMiner, the mode is structure-shaping and fixed at engine
// construction: passing it through With or per-query options has no effect.
// ApplyEdits re-derives the permutation for each materialised epoch.
func WithRelabeling(mode RelabelMode) Option { return func(cfg *config) { cfg.relabel = mode } }

// WithMiner configures the biclique miner used by the memoized variants and
// the Engine's cached compression.
func WithMiner(m MinerOptions) Option { return func(cfg *config) { cfg.miner = m } }

// WithLambda balances P-Rank's in-link (λ) versus out-link (1−λ) evidence.
// Default 0.5. Only P-Rank reads it.
func WithLambda(l float64) Option { return func(cfg *config) { cfg.lambda = l } }

// WithDelta sets the in-flight sieving threshold of the sparse SimRank*
// solver (entries below δ are dropped during iteration, not after).
// Default 1e-4. Only the sparse measure reads it.
func WithDelta(d float64) Option { return func(cfg *config) { cfg.delta = d } }

// WithWorkers bounds the concurrency of the Engine's batch queries
// (MultiSource, BatchTopK). 0, the default, means one worker per CPU.
// Only the Engine reads it; it never changes what a query returns.
func WithWorkers(n int) Option { return func(cfg *config) { cfg.workers = n } }

// WithParallelSweeps sets the intra-query parallelism of the frontier
// kernel: each sweep of a single-source, top-k, stream or batch query is
// partitioned by output range across n workers drawn from a persistent
// per-engine pool. The partition preserves per-element accumulation order,
// so scores — and tolerance certificates — are bitwise-identical at every
// worker count (conformance-tested for every measure); like WithWorkers it
// never changes what a query returns and is excluded from result-cache
// keys.
//
// 0 (the default) and 1 serve each sweep on the query's calling goroutine;
// n > 1 uses exactly n workers; a negative n uses one worker per CPU.
// Sweeps over fewer than 32 frontier entries run serially at any setting.
// The zero-alloc discipline of the pooled serving paths survives fan-out:
// workers are reused across queries, and a warmed engine adds no per-query
// allocations at any setting.
func WithParallelSweeps(n int) Option { return func(cfg *config) { cfg.parallelSweeps = n } }

// sweepWorkers resolves WithParallelSweeps to an effective worker count;
// 1 means serial (no Sweeper is borrowed).
func (cfg config) sweepWorkers() int {
	switch {
	case cfg.parallelSweeps < 0:
		return par.Workers()
	case cfg.parallelSweeps <= 1:
		return 1
	default:
		return cfg.parallelSweeps
	}
}

// WithCacheSize sets the capacity, in entries, of the Engine's single-source
// result cache. 0, the default, means DefaultCacheSize; a negative value
// disables the cache. Only the Engine reads it; it never changes what a
// query returns.
func WithCacheSize(n int) Option { return func(cfg *config) { cfg.cacheSize = n } }

// WithEpochInterval sets how many edits the Engine's versioned store buffers
// before materialising a new graph epoch. The default (and anything <= 1)
// materialises on every ApplyEdits call, so mutations are immediately
// visible; a larger interval amortises the refresh over write bursts at the
// price of queries reading an up-to-(n-1)-edits-stale epoch until the next
// materialisation or Refresh. Fixed at engine construction; it never changes
// what a query returns for the epoch it runs on.
func WithEpochInterval(n int) Option { return func(cfg *config) { cfg.epochInterval = n } }

// WithBaseEpoch numbers the engine's initial graph epoch, so an engine
// warm-started from a persisted snapshot (ReadSnapshot) resumes the version
// sequence instead of restarting at 0. Fixed at engine construction.
func WithBaseEpoch(epoch uint64) Option { return func(cfg *config) { cfg.baseEpoch = epoch } }

// WithDeadline gives every query served by an Engine a wall-clock budget:
// at query entry the engine derives a context.WithTimeout(ctx, d) and the
// kernels' amortised cancellation polls abort the run once it expires,
// surfacing context.DeadlineExceeded. The budget is per query (each
// SingleSource/TopK/stream call, each batch query), layered on top
// of whatever deadline the caller's own context already carries — whichever
// fires first wins. 0, the default, imposes no engine-side budget. A
// deadline changes how long a query may run, never what a completed query
// returns, so it is excluded from result-cache keys.
func WithDeadline(d time.Duration) Option { return func(cfg *config) { cfg.deadline = d } }

// WithFaultHook installs a fault-injection callback on the engine's kernel
// entry points, for chaos testing: fn is invoked with the fault site name
// (FaultPointKernel) immediately before each kernel run, and may sleep (a
// slow fault) or panic (an injected crash — isolated by the engine and
// surfaced as an ErrKernelPanic-wrapped error, never a process crash).
// Typically fn is (*fault.Injector).Hook(). nil removes the hook. Fault
// injection perturbs scheduling and aborts queries; it never changes what a
// surviving query returns, so the hook is excluded from result-cache keys.
func WithFaultHook(fn func(site string)) Option {
	return func(cfg *config) {
		if fn == nil {
			cfg.fault = nil
			return
		}
		cfg.fault = &faultHook{fn: fn}
	}
}

// faultHook boxes the WithFaultHook callback behind a pointer so config
// stays comparable (it is a map key in the result cache); the hook itself
// is identity-compared, and cacheParams strips it anyway.
type faultHook struct{ fn func(site string) }

// WithObserver attaches an Observer: the engine's query, cache, kernel and
// workspace-pool counters stream into its registry. Without one (the
// default) every hook is a nil check — the serving fast paths stay
// allocation-free either way, and observation never changes what a query
// returns. Engines derived through With inherit the observer; typically it
// is set once at construction and read back through Engine.Metrics.
func WithObserver(o *Observer) Option { return func(cfg *config) { cfg.observer = o } }

func buildConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

func (cfg config) coreOptions() core.Options {
	return core.Options{C: cfg.c, K: cfg.k, Eps: cfg.eps, Sieve: cfg.sieve, Mine: cfg.miner.internal()}
}

// iterationsOrDefault resolves the effective iteration count with the
// kernels' own default (K=5) applied.
func (cfg config) iterationsOrDefault() int {
	if k := cfg.iterations(); k > 0 {
		return k
	}
	return 5
}

// checkIterations refuses an effective iteration count past the float64
// resolution cap (see IterationsError) for a query on builtin, the
// resolved built-in name ("" for other measures). The exponential forms
// derive K from their own factorial bound; every other measure from the
// geometric one. Co-citation never iterates, so K cannot cost it anything
// and it is always served.
func (cfg config) checkIterations(builtin string) error {
	if builtin == MeasureCoCitation {
		return nil
	}
	opt := cfg.coreOptions()
	k := opt.IterationsGeometric()
	if builtin == MeasureExponential || builtin == MeasureExponentialMemo {
		k = opt.IterationsExponential()
	}
	if max := opt.MaxIterations(); k > max {
		return &IterationsError{K: k, Max: max}
	}
	return nil
}

// iterations resolves the iteration count for measures whose options structs
// have no Eps field; they follow the geometric convergence bound Cᵏ⁺¹ <= ε.
func (cfg config) iterations() int {
	if cfg.eps > 0 {
		return cfg.coreOptions().IterationsGeometric()
	}
	return cfg.k
}

func (cfg config) simrankOptions() simrank.Options {
	return simrank.Options{C: cfg.c, K: cfg.iterations(), Sieve: cfg.sieve}
}

func (cfg config) prankOptions() prank.Options {
	return prank.Options{C: cfg.c, K: cfg.iterations(), Lambda: cfg.lambda, Sieve: cfg.sieve}
}

func (cfg config) rwrOptions() rwr.Options {
	return rwr.Options{C: cfg.c, K: cfg.iterations(), Sieve: cfg.sieve}
}

func (cfg config) sparseOptions() sparsesim.Options {
	return sparsesim.Options{C: cfg.c, K: cfg.iterations(), Delta: cfg.delta}
}
