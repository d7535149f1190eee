package obs

import "time"

// Span is one timed stage of a query trace.
type Span struct {
	// Stage names the lifecycle stage: "plan", "cache", "kernel",
	// "select", "assemble" or "stream".
	Stage string `json:"stage"`
	// DurationUs is the stage's wall time in microseconds.
	DurationUs float64 `json:"duration_us"`
}

// KernelTrace is the kernel-reported detail of one query: what the sweep
// loops, the sieve and the workspace arena actually did. It is the sink
// the WS/Into kernel paths fill when tracing is on — threaded as a nilable
// pointer (core.Options.Trace, rwr.Options.Trace, sparse.CertBudget.Trace)
// whose call sites guard with an explicit nil check so the disabled path
// costs one branch and zero allocations (enforced by simlint's obsnoop).
//
// Methods on a non-nil receiver are plain field updates; a KernelTrace is
// per-query and never written concurrently.
type KernelTrace struct {
	// Sweeps counts matrix-sweep iterations the kernels ran.
	Sweeps int `json:"sweeps"`
	// FrontierMax is the widest sparse frontier a sieved kernel carried
	// (0 for exact dense kernels, whose frontier is implicitly n).
	FrontierMax int `json:"frontier_max,omitempty"`
	// FrontierLast is the frontier width at the final sweep.
	FrontierLast int `json:"frontier_last,omitempty"`
	// SievePoints counts sieve invocations that charged the error budget.
	SievePoints int `json:"sieve_points,omitempty"`
	// SieveSpend is the total certified error mass the sieves dropped —
	// the CertBudget spend backing the query's MaxError.
	SieveSpend float64 `json:"sieve_spend,omitempty"`
	// Certificate is the kernel's certified |approx-exact| bound
	// (0 for exact kernels).
	Certificate float64 `json:"certificate,omitempty"`
	// WorkspaceGrew counts arena buffers the workspace allocated during the
	// query — non-zero only on a pool miss or first use, the pooled
	// steady state reuses every buffer.
	WorkspaceGrew int `json:"workspace_grew,omitempty"`
	// ParSweeps counts the sweeps that actually fanned out across Sweeper
	// workers (a sweep below the fan-out gate runs serially and is not
	// counted). 0 for serial queries.
	ParSweeps int `json:"par_sweeps,omitempty"`
	// SweepWorkers is the Sweeper worker count the query ran with;
	// 0 for serial queries.
	SweepWorkers int `json:"sweep_workers,omitempty"`
}

// Reset zeroes the trace for reuse.
func (t *KernelTrace) Reset() {
	if t == nil {
		return
	}
	*t = KernelTrace{}
}

// AddSweeps records n completed sweep iterations.
func (t *KernelTrace) AddSweeps(n int) {
	if t == nil {
		return
	}
	t.Sweeps += n
}

// ObserveFrontier records one sweep's sparse-frontier width.
func (t *KernelTrace) ObserveFrontier(n int) {
	if t == nil {
		return
	}
	if n > t.FrontierMax {
		t.FrontierMax = n
	}
	t.FrontierLast = n
}

// AddParSweeps records n parallel sweep fan-outs at the given worker count.
// n == 0 (no sweep cleared the fan-out gate) leaves the trace untouched.
func (t *KernelTrace) AddParSweeps(n, workers int) {
	if t == nil || n == 0 {
		return
	}
	t.ParSweeps += n
	t.SweepWorkers = workers
}

// AddSieveSpend records one sieve's certified dropped mass.
func (t *KernelTrace) AddSieveSpend(spent float64) {
	if t == nil {
		return
	}
	t.SievePoints++
	t.SieveSpend += spent
}

// Trace is the structured record of one query's path through the engine:
// which stages ran, how long each took, whether the result cache answered,
// and what the kernels reported. Engine.TraceSingleSource/TraceTopK return
// it; cmd/simserve embeds it in JSON responses under ?trace=1.
type Trace struct {
	// Measure is the canonical measure name the query resolved to.
	Measure string `json:"measure"`
	// Node is the query node (external id); -1 for request-level traces
	// that cover many nodes (batch).
	Node int `json:"node"`
	// K is the ranking size for top-k queries, 0 otherwise.
	K int `json:"k,omitempty"`
	// Queries is the slot count for batch-level traces, 0 otherwise.
	Queries int `json:"queries,omitempty"`
	// Epoch is the graph version the query was answered against.
	Epoch uint64 `json:"epoch"`
	// Layout names the relabeling layout in effect ("degree", "rcm");
	// empty in natural order.
	Layout string `json:"layout,omitempty"`
	// Cached reports whether the result came from the result cache.
	Cached bool `json:"cached"`
	// Plan records how the answer was produced — "cache", "exact",
	// "sieved" for single queries; for batches, the fan-out width
	// ("fanout b=N", N distinct queries the cache could not answer).
	Plan string `json:"plan,omitempty"`
	// MaxError is the certified error bound of the answer (0 = exact).
	MaxError float64 `json:"max_error"`
	// Spans are the timed stages in execution order.
	Spans []Span `json:"spans"`
	// Kernel is the kernel-reported detail; zero-valued when the cache
	// answered and no kernel ran.
	Kernel KernelTrace `json:"kernel"`
	// TotalUs is the end-to-end time in microseconds, covering the spans
	// and everything between them.
	TotalUs float64 `json:"total_us"`
}

// AddSpan appends one timed stage.
func (t *Trace) AddSpan(stage string, d time.Duration) {
	t.Spans = append(t.Spans, Span{Stage: stage, DurationUs: us(d)})
}

// Finish stamps the trace's end-to-end time from its start instant.
func (t *Trace) Finish(start time.Time) {
	t.TotalUs = us(time.Since(start))
}

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
