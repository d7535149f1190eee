package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

func multiTestGraph() *graph.Graph {
	// A small digraph with co-citations, a chain, a sink and a source.
	return graph.FromEdges(8, [][2]int{
		{0, 1}, {0, 2}, {3, 0}, {4, 0}, {5, 3}, {5, 4}, {6, 3}, {6, 1}, {2, 1}, {7, 5},
	})
}

// MultiSourceGeometricFromTransition loops the frontier kernel at
// tolerance 0 on one shared workspace; every result must be bitwise the
// dense kernel's.
func TestMultiSourceMatchesSingleSourceBitwise(t *testing.T) {
	g := multiTestGraph()
	qm := sparse.BackwardTransition(g)
	qt := qm.Transpose()
	ctx := context.Background()
	opt := Options{C: 0.6, K: 6}
	nodes := []int{0, 3, 5, 7, 3} // includes a duplicate

	geo, err := MultiSourceGeometricFromTransition(ctx, qm, qt, nodes, opt)
	if err != nil {
		t.Fatal(err)
	}
	for t_, q := range nodes {
		want := denseGeometric(t, qm, q, opt)
		for i := range want {
			if geo[t_][i] != want[i] {
				t.Fatalf("query %d (node %d): [%d] = %g, want %g", t_, q, i, geo[t_][i], want[i])
			}
		}
	}
}

func TestMultiSourceEmptyAndCancelled(t *testing.T) {
	g := multiTestGraph()
	qm := sparse.BackwardTransition(g)
	qt := qm.Transpose()
	opt := Options{C: 0.6, K: 4}
	if out, err := MultiSourceGeometricFromTransition(context.Background(), qm, qt, nil, opt); err != nil || out != nil {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MultiSourceGeometricFromTransition(ctx, qm, qt, []int{0, 1}, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
