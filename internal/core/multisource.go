package core

import (
	"context"

	"repro/internal/sparse"
)

// MultiSourceGeometricFromTransition answers one exact geometric SimRank*
// single-source query per entry of nodes: a loop over
// SingleSourceGeometricFrontier at tolerance 0 on one shared workspace, so
// result i is bitwise SingleSourceGeometricWS for nodes[i]. The engine has
// no multi-source kernel — a batch fans out over single-source queries —
// and this loop stays only because the benchmark module (perfbench) times
// a 16-query batch under this name.
func MultiSourceGeometricFromTransition(ctx context.Context, qm, qt *sparse.CSR, nodes []int, opt Options) ([][]float64, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	ws := sparse.NewWorkspace(qm.R)
	out := make([][]float64, len(nodes))
	for i, q := range nodes {
		out[i] = make([]float64, qm.R)
		if _, err := SingleSourceGeometricFrontier(ctx, qm, qt, q, 0, opt, ws, out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
