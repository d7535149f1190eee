// Package simstar is the public face of this repository: one API over the
// whole family of node-pair similarity measures the paper studies —
// geometric and exponential SimRank* (iterative and memoized), classic
// SimRank, P-Rank, RWR and the threshold-sieved sparse SimRank* solver.
//
// The package separates the two phases a serving system must keep apart:
//
//   - Measure: a pluggable similarity measure selected by name from a
//     registry (Register / Lookup). Every measure answers all-pairs and
//     single-source queries under a context, so deadlines and cancellation
//     work end-to-end.
//   - Engine: per-graph preprocessing done once — the CSR transition
//     matrices and the biclique edge-concentration compression — then
//     reused by every query. The measures rebuild these structures per
//     call; the Engine is what makes heavy query traffic affordable.
//
// The served graph is dynamic: Engine.ApplyEdits streams edge insertions
// and removals through a versioned store, each materialised batch becoming
// a new graph epoch whose preprocessing is refreshed incrementally and
// whose scores are bitwise-identical to a from-scratch build. Queries and
// mutations never block each other — a query answers from the epoch it
// pinned at entry. Engine.Snapshot/WriteSnapshot/ReadSnapshot persist an
// epoch for warm restarts.
//
// The Engine answers every single-source query on the SimRank* and RWR
// measures with one frontier kernel, which propagates only the mass the
// walk actually reaches. Queries can trade a bounded amount of accuracy
// for speed: WithTolerance lets each sweep drop mass that provably cannot
// move any score past the remaining error budget. Every result then
// carries a certified bound — Engine.SingleSourceCertified and
// Result.MaxError report MaxError with |approx − exact| <= MaxError <= eps
// element-wise — while the default (no tolerance) drops nothing and stays
// bitwise-identical to the dense reference kernels. The result cache keys
// on the tolerance, so an approximate entry can never serve a tighter
// request.
//
// On top of the Engine sits the batch layer a serving system talks to:
// MultiSource and BatchTopK answer many single-source queries in one call,
// serving repeats from a size-bounded LRU result cache, computing
// duplicates once, and fanning the rest across a worker pool. Batching
// changes the cost of a query, never its answer. cmd/simserve exposes all
// of this over HTTP/JSON; ARCHITECTURE.md in the repository root draws the
// full picture.
//
// Quickstart:
//
//	g, _ := simstar.ReadGraph(f)
//	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(8))
//	top, _ := eng.TopK(ctx, simstar.MeasureGeometric, query, 10)
//
// a batch, with a per-query override:
//
//	results := eng.BatchTopK(ctx, []simstar.Query{
//		{Measure: simstar.MeasureGeometric, Node: a, K: 10},
//		{Measure: simstar.MeasureRWR, Node: b, K: 5, Opts: []simstar.Option{simstar.WithK(12)}},
//	})
//
// or, without an engine, through the registry:
//
//	m, _ := simstar.Lookup("rwr", simstar.WithK(8))
//	scores, _ := m.AllPairs(ctx, g)
package simstar

import (
	"io"

	"repro/internal/core"
	"repro/internal/graph"
)

// Graph is the directed-graph substrate shared by all measures: a compact
// immutable CSR representation with both adjacency directions, node labels
// and text serialisation. It aliases the internal implementation so graphs
// flow between this API and the rest of the repository without conversion.
type Graph = graph.Graph

// GraphBuilder accumulates nodes and edges and produces an immutable Graph.
type GraphBuilder = graph.Builder

// GraphStats summarises a graph (node/edge counts, degrees, shape).
type GraphStats = graph.Stats

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// ReadGraph parses a SNAP-style edge list ("u<TAB>v" per line, '#' comments;
// labelled if any endpoint is non-numeric).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph serialises g in the format ReadGraph parses.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// GraphFromEdges builds an unlabelled graph on n nodes from an edge list.
func GraphFromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// Explanation is one in-link path pair contributing to a geometric SimRank*
// score — the Section 3.2 decomposition of the measure.
type Explanation = core.Explanation

// Explain decomposes the geometric SimRank* score of (a, b) into in-link
// path contributions of total length <= maxLen, sorted by descending
// contribution. maxWalks caps the enumeration per (node, length); 0 means
// the default.
func Explain(g *Graph, a, b int, c float64, maxLen, maxWalks int) []Explanation {
	return core.ExplainGeometric(g, a, b, c, maxLen, maxWalks)
}

// ExplainedScore sums the contributions — the reconstructed partial sum.
func ExplainedScore(exps []Explanation) float64 { return core.ExplainedScore(exps) }
