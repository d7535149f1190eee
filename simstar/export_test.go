package simstar

import (
	"context"

	"repro/internal/core"
	"repro/internal/rwr"
	"repro/internal/sparse"
)

// DenseReference answers query q on the named measure the slow way, for the
// differential tests: the serial dense kernel of the fast-path measures, run
// on the operator the engine's current epoch sweeps (permuted under
// WithRelabeling, with the result translated back to external ids), or the
// measure's standalone implementation for every other measure. It ignores
// the engine's tolerance — the reference is always exact.
func DenseReference(ctx context.Context, e *Engine, measureName string, q int) ([]float64, error) {
	st := e.load()
	n := st.g.N()
	dst := make([]float64, n)
	qi := st.toInternal(q)
	var err error
	switch builtinFor(measureName) {
	case MeasureGeometric, MeasureGeometricMemo:
		err = core.SingleSourceGeometricWS(ctx, st.kernelBackward(), qi, e.cfg.coreOptions(), nil, dst)
	case MeasureExponential, MeasureExponentialMemo:
		err = core.SingleSourceExponentialWS(ctx, st.kernelBackward(), qi, e.cfg.coreOptions(), nil, dst)
	case MeasureRWR:
		err = rwr.SingleSourceWS(ctx, st.kernelForward(), qi, e.cfg.rwrOptions(), nil, dst)
	default:
		m, err := Lookup(measureName, e.opts...)
		if err != nil {
			return nil, err
		}
		return m.SingleSource(ctx, st.g, q)
	}
	if err != nil {
		return nil, err
	}
	st.externalize(dst, sparse.NewWorkspace(n))
	return dst, nil
}

// PooledWorkspaceGrows borrows a workspace from the current epoch's pool,
// reports how many arena buffers it holds, and hands it back.
func PooledWorkspaceGrows(e *Engine) int {
	st := e.load()
	ws := st.getWS()
	defer st.pool.Put(ws)
	return ws.Grows()
}
