package simstar

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/par"
)

// Query is one single-source unit of work in a batch. The zero value of the
// optional fields means "use the engine's defaults": no per-query option
// overrides, no exclusions, and — for BatchTopK — K <= 0 yields an empty
// ranking, per the TopK boundary contract.
type Query struct {
	// Measure is the registry name (or alias) of the measure to run.
	Measure string
	// Node is the query node.
	Node int
	// K is the ranking size for BatchTopK; MultiSource ignores it.
	K int
	// Exclude lists nodes to drop from a BatchTopK ranking, in addition to
	// the query node itself; MultiSource ignores it.
	Exclude []int
	// Opts are layered on top of the engine's options for this query only,
	// exactly as Engine.With would apply them (so structure-shaping options
	// like WithMiner do not re-mine; see Engine.With).
	Opts []Option
}

// Result is the outcome of one Query in a batch. Results are positional:
// the i-th Result answers the i-th Query. Exactly one of Scores/Top is
// populated on success — Scores by MultiSource, Top by BatchTopK — and Err
// is non-nil otherwise. One query failing never fails its batch.
type Result struct {
	// Scores is the full score vector of the query node against every node
	// (MultiSource only). The slice is the caller's to keep and mutate.
	Scores []float64
	// Top is the ranked result (BatchTopK only).
	Top []Ranked
	// Cached reports whether the underlying score vector was served from
	// the engine's result cache rather than computed.
	Cached bool
	// MaxError is the certified element-wise bound on how far the
	// underlying score vector can be from the exact answer at the query's
	// parameters: 0 for exact queries, at most the configured tolerance for
	// sieved-approximate ones (see WithTolerance).
	MaxError float64
	// Err is the per-query error: an unknown measure, an out-of-range
	// node, or ctx's error for queries cancelled or skipped mid-batch.
	Err error
}

// Stream adapts a BatchTopK Result into the lazy iterator form, carrying
// the result's Cached flag and MaxError certificate. The stream aliases
// Top — it is a view, not a copy — so a consumer can hand batch answers to
// the same sink that consumes Engine.TopKStream. A failed or MultiSource
// result streams zero entries.
func (r *Result) Stream() *TopKStream {
	return &TopKStream{ranked: r.Top, maxErr: r.MaxError, cached: r.Cached}
}

// MultiSource answers a batch of single-source queries, sharing work two
// ways a serial loop of SingleSource calls cannot:
//
//   - Cache first: queries answered recently come straight from the
//     engine's result cache, and duplicate queries inside one batch are
//     computed once.
//   - Fan-out: the remaining queries spread across a worker pool
//     (WithWorkers bounds it; the default is one worker per CPU),
//     dispatched from a shared counter so one expensive query does not
//     serialise a chunk of the batch behind it. Each runs the same
//     single-source path SingleSource does — the frontier kernel for the
//     fast-path measures.
//
// Each query may carry Opts overriding the engine's parameters for that
// query alone. Cancellation is two-level: ctx aborts the kernels of queries
// already running (they return ctx's error in their Result) and stops
// undispatched queries from starting, which report ctx's error likewise.
// The returned slice always has len(queries) entries, in query order, and
// every entry's scores are identical to what SingleSource returns for that
// query — batching changes the cost, never the answer.
func (e *Engine) MultiSource(ctx context.Context, queries []Query) []Result {
	return e.batch(ctx, queries, false, nil)
}

// BatchTopK is MultiSource for ranked queries: it answers each Query with
// the Query.K nodes most similar to Query.Node under Query.Measure,
// excluding the query node and Query.Exclude, with ties broken by node id.
// Boundary semantics per query follow TopK: K <= 0 yields an empty Top,
// K larger than the candidate count yields every candidate.
func (e *Engine) BatchTopK(ctx context.Context, queries []Query) []Result {
	return e.batch(ctx, queries, true, nil)
}

// MultiSourceTrace is MultiSource with the batch's execution recorded into
// the caller's trace: tr.Plan reads "fanout b=N", N being the number of
// distinct queries the cache could not answer. The caller owns every other
// trace field, including the Finish stamp; a nil tr makes it exactly
// MultiSource.
func (e *Engine) MultiSourceTrace(ctx context.Context, queries []Query, tr *obs.Trace) []Result {
	return e.batch(ctx, queries, false, tr)
}

// BatchTopKTrace is BatchTopK with the batch's execution recorded into the
// caller's trace, exactly as MultiSourceTrace records it.
func (e *Engine) BatchTopKTrace(ctx context.Context, queries []Query, tr *obs.Trace) []Result {
	return e.batch(ctx, queries, true, tr)
}

// batch is the shared implementation of MultiSource and BatchTopK: cache
// probe, dedupe, fan-out. The engine state is pinned once at entry, so the
// whole batch answers against one graph epoch even while ApplyEdits streams
// mutations concurrently.
func (e *Engine) batch(ctx context.Context, queries []Query, topk bool, tr *obs.Trace) []Result {
	st := e.load()
	if o := e.cfg.observer; o != nil {
		o.qBatch.Add(uint64(len(queries)))
	}
	results := make([]Result, len(queries))
	done := make([]bool, len(queries))
	finish := func(i int, scores []float64, maxErr float64, cached bool) {
		q := queries[i]
		if topk {
			results[i] = Result{
				Top:      TopK(scores, q.K, append([]int{q.Node}, q.Exclude...)...),
				Cached:   cached,
				MaxError: maxErr,
			}
		} else {
			results[i] = Result{Scores: scores, Cached: cached, MaxError: maxErr}
		}
		done[i] = true
	}

	// Resolve each query, serve cache hits, and dedupe the rest: duplicate
	// queries (same cache key) compute once — one representative per key
	// runs, the rest share its result.
	engs := make([]*Engine, len(queries))
	keys := make([]cacheKey, len(queries))
	dup := make(map[cacheKey][]int)
	var uniq []int
	for i, q := range queries {
		eng := e
		if len(q.Opts) > 0 {
			eng = e.With(q.Opts...)
		}
		engs[i] = eng
		if err := st.checkQuery(ctx, q.Node); err != nil {
			results[i] = Result{Err: err}
			done[i] = true
			continue
		}
		key := eng.cacheKey(st, q.Measure, q.Node)
		keys[i] = key
		if scores, maxErr, ok := eng.cacheLookup(key); ok {
			finish(i, scores, maxErr, true)
			continue
		}
		if _, seen := dup[key]; !seen {
			uniq = append(uniq, i)
		}
		dup[key] = append(dup[key], i)
	}
	if tr != nil {
		tr.Plan = fmt.Sprintf("fanout b=%d", len(uniq))
	}

	par.ForEachCtx(ctx, len(uniq), e.cfg.workers, func(j int) {
		i := uniq[j]
		eng, q := engs[i], queries[i]
		// count=false: the whole batch was counted under kind=batch above.
		scores, maxErr, cached, err := eng.singleSourceObs(ctx, st, q.Measure, q.Node, false, nil)
		for d, ii := range dup[keys[i]] {
			switch {
			case err != nil:
				results[ii] = Result{Err: err}
				done[ii] = true
			case d == 0:
				finish(ii, scores, maxErr, cached)
			default:
				finish(ii, append([]float64(nil), scores...), maxErr, cached)
			}
		}
	})

	// Queries the pool never dispatched (cancelled mid-batch) still owe the
	// caller an answer.
	for i := range results {
		if !done[i] {
			results[i] = Result{Err: ctx.Err()}
		}
	}
	return results
}
