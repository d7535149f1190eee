package simstar

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
)

// This file is the engine's resilience surface: per-query deadline budgets
// (WithDeadline), fault-injection hooks (WithFaultHook), and kernel panic
// isolation. The contract across all three: a query may run slower, abort
// with context.DeadlineExceeded, or fail with an ErrKernelPanic-wrapped
// error — but a completed query always returns the same scores an
// unperturbed run would have, and a kernel panic never escapes the engine
// as a process crash.

// ErrKernelPanic marks a query that failed because a kernel panicked
// mid-run — a bug, a corrupted operand, or an injected fault — and the
// engine isolated the crash instead of letting it take the process down.
// Callers test with errors.Is; the wrapped message carries the panic value.
// The engine's caches and pooled workspaces stay consistent across a
// recovered panic (workspace pools simply lose the in-flight loan), so the
// engine keeps serving.
var ErrKernelPanic = errors.New("simstar: kernel panic")

// FaultPointKernel is the fault site name the engine reports to WithFaultHook
// callbacks at each kernel entry — single-source, top-k stream and batch
// queries alike. An Injector's Hook derives its trigger points from it
// ("kernel.slow", "kernel.panic").
const FaultPointKernel = "kernel"

// HasCertifiedPath reports whether the named measure runs the engine's
// frontier kernel, which under WithTolerance drops mass against an error
// budget and returns a machine-checkable MaxError certificate. An overload
// governor uses this to decide which queries can degrade to approximate
// answers without losing the exactness contract silently; measures without
// a certified path ignore WithTolerance and always answer exactly.
func HasCertifiedPath(measureName string) bool {
	return fastPathKernel(builtinFor(measureName))
}

// deadlineCtx applies cfg's WithDeadline budget to ctx: a derived timeout
// context when a budget is configured, ctx unchanged (and a nil cancel)
// otherwise. Callers guard the nil cancel, which keeps the no-deadline
// serving paths allocation-free.
func (cfg config) deadlineCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if cfg.deadline <= 0 {
		return ctx, nil
	}
	return context.WithTimeout(ctx, cfg.deadline)
}

// fireFault invokes the WithFaultHook callback at a fault site; one nil
// check when no hook is installed.
func (cfg config) fireFault(site string) {
	if h := cfg.fault; h != nil {
		h.fn(site)
	}
}

// recoverKernel is the engine's panic isolation boundary, installed with
// `defer e.recoverKernel(&err)` on every kernel-running serving path (a
// direct method defer, so the //simstar:noalloc paths can afford it — no
// closure). A recovered panic becomes an ErrKernelPanic-wrapped error in
// *errp; everything else about the query's named returns stays zero.
func (e *Engine) recoverKernel(errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("%w: %v", ErrKernelPanic, r)
	}
}

// safeComputeSingleSource runs computeSingleSource behind the fault hook
// and the panic isolation boundary — the allocating single-source read
// path's kernel step.
func (e *Engine) safeComputeSingleSource(ctx context.Context, st *engineState, measureName string, q int, kt *obs.KernelTrace) (scores []float64, maxErr float64, err error) {
	defer e.recoverKernel(&err)
	e.cfg.fireFault(FaultPointKernel)
	return e.computeSingleSource(ctx, st, measureName, q, kt)
}
