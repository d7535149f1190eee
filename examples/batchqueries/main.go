// Batched multi-source queries: the serving-path example. A recommender
// that must rank "related papers" for every paper a user has open does not
// issue one query at a time — it hands the whole working set to
// Engine.BatchTopK, which serves cache hits first, computes duplicates
// once, and fans the rest across a worker pool.
//
//	go run ./examples/batchqueries
package main

import (
	"context"
	"fmt"
	"time"

	"repro/simstar"
)

func main() {
	// A small co-citation web: two research threads sharing one classic.
	b := simstar.NewGraphBuilder()
	for _, e := range [][2]string{
		{"survey", "classicA"}, {"survey", "classicB"},
		{"followup1", "survey"}, {"followup2", "survey"},
		{"review", "followup1"}, {"review", "followup2"},
		{"preprint", "followup1"}, {"preprint", "classicA"},
		{"thesis", "review"}, {"thesis", "preprint"},
		{"classicB", "classicA"},
	} {
		b.AddEdgeLabeled(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}

	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(8))

	// The user's working set: rank related papers for all of it at once.
	// One query rides along under a different measure and tighter K to show
	// per-query overrides.
	var queries []simstar.Query
	for _, label := range []string{"followup1", "followup2", "review", "preprint"} {
		node, _ := g.NodeByLabel(label)
		queries = append(queries, simstar.Query{
			Measure: simstar.MeasureGeometric,
			Node:    node,
			K:       3,
		})
	}
	rwrNode, _ := g.NodeByLabel("thesis")
	queries = append(queries, simstar.Query{
		Measure: simstar.MeasureRWR,
		Node:    rwrNode,
		K:       3,
		Opts:    []simstar.Option{simstar.WithK(12)},
	})

	t0 := time.Now()
	results := eng.BatchTopK(ctx, queries)
	fmt.Printf("batch of %d ranked queries in %v (cold cache)\n\n", len(queries), time.Since(t0).Round(time.Microsecond))

	for i, res := range results {
		if res.Err != nil {
			fmt.Printf("  query %d failed: %v\n", i, res.Err)
			continue
		}
		fmt.Printf("  related to %-10s [%s]:", g.Label(queries[i].Node), queries[i].Measure)
		for _, r := range res.Top {
			fmt.Printf("  %s (%.4f)", g.Label(r.Node), r.Score)
		}
		fmt.Println()
	}

	// The same batch again: every vector now comes from the result cache.
	t0 = time.Now()
	results = eng.BatchTopK(ctx, queries)
	hits := 0
	for _, res := range results {
		if res.Cached {
			hits++
		}
	}
	fmt.Printf("\nrepeat batch in %v: %d/%d served from cache\n", time.Since(t0).Round(time.Microsecond), hits, len(results))
	st := eng.CacheStats()
	fmt.Printf("cache: %d/%d entries, %d hits, %d misses\n", st.Size, st.Capacity, st.Hits, st.Misses)
}
