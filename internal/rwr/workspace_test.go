package rwr

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

// The workspace kernel promises bitwise equality with the allocating form,
// and one reused workspace/dst pair must not leak state across
// queries.
func TestSingleSourceWSBitwise(t *testing.T) {
	g := dataset.RMATDefault(7, 4, 77)
	w := sparse.ForwardTransition(g)
	ctx := context.Background()
	ws := sparse.NewWorkspace(w.R)
	dst := make([]float64, w.R)
	for _, opt := range []Options{{C: 0.6, K: 5}, {C: 0.9, K: 1}, {C: 0.6, K: 4, Sieve: 1e-3}} {
		for q := 0; q < w.R; q += 13 {
			want, err := SingleSourceCtx(ctx, g, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := SingleSourceWS(ctx, w, q, opt, ws, dst); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("opt=%+v q=%d: [%d] = %g, want %g", opt, q, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestSingleSourceWSCancellation(t *testing.T) {
	g := dataset.RMATDefault(6, 4, 78)
	w := sparse.ForwardTransition(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float64, w.R)
	if err := SingleSourceWS(ctx, w, 0, Options{}, nil, dst); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
