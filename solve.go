package ingrass

import (
	"context"
	"fmt"

	"ingrass/internal/precond"
	"ingrass/internal/solver"
)

// SolveOptions is the request-scoped knob set for Laplacian solves. A zero
// value means "all defaults". It flows unchanged from the public API down
// to the PCG loop. The HTTP layer defines its own wire struct (cmd/ingrass
// solveRequest) because not every field is HTTP-settable.
type SolveOptions struct {
	// Tol is the relative residual target ||r|| <= Tol*||b||. Default 1e-8.
	Tol float64
	// MaxIter bounds outer iterations. 0 derives 10*n clamped to 20000; an
	// explicit value is used verbatim, never clamped.
	MaxIter int
	// Workers bounds the parallelism of Laplacian application and the fused
	// CG vector kernels; the count is clamped to GOMAXPROCS and dispatches
	// into a persistent worker pool (internal/kernel), so parallel solves
	// stay allocation-free on the warm path. It is honored where an
	// operator is built for this call (SolveLaplacian) and ignored on
	// shared, already-frozen factorizations (Service solves — configure
	// ServiceOptions.Solve.Workers instead), which is why the HTTP layer
	// does not expose it.
	Workers int
	// Format selects the frozen operator's sparse storage layout: "auto"
	// (default — size/padding heuristic), "csr", or "sell". Like Workers it
	// is honored where an operator is frozen for this call; configure
	// ServiceOptions.Solve.Format for engine snapshots. Unknown names fall
	// back to auto.
	Format string
}

func (o SolveOptions) internal() solver.Options {
	f, _ := solver.ParseFormat(o.Format)
	return solver.Options{
		Tol:     o.Tol,
		MaxIter: o.MaxIter,
		Workers: o.Workers,
		Format:  f,
	}
}

// SolveStats reports a preconditioned Laplacian solve.
type SolveStats struct {
	// Iterations is the PCG iteration count.
	Iterations int `json:"iterations"`
	// Residual is the final relative residual.
	Residual float64 `json:"residual"`
	// Converged reports whether the tolerance was met.
	Converged bool `json:"converged"`
	// PrecondUses counts preconditioner applications (factor sweeps).
	// A coalesced or batched solve reports its whole block's count.
	PrecondUses int `json:"precond_uses"`
	// Generation is the snapshot generation that served the solve. Only
	// set by Service.Solve; standalone SolveLaplacian leaves it zero.
	Generation uint64 `json:"generation"`
}

// SolveLaplacian solves the Laplacian system L_G x = b using conjugate
// gradients preconditioned by an exact factorization of the sparsifier h — the downstream
// application (fast circuit-style solves) that motivates maintaining a
// sparsifier in the first place. b must be mean-zero up to rounding (the
// system is singular with the constant null space); it is centered
// internally, and the returned solution is mean-zero.
//
// ctx cancellation or deadline expiry aborts the solve within one outer
// iteration; the error matches ErrCancelled via errors.Is and partial
// stats are returned. A solve that exhausts opts.MaxIter returns the best
// iterate alongside ErrNoConvergence.
func SolveLaplacian(ctx context.Context, g, h *Graph, b []float64, opts SolveOptions) ([]float64, SolveStats, error) {
	if len(b) != g.NumNodes() {
		return nil, SolveStats{}, fmt.Errorf("ingrass: rhs length %d != %d nodes", len(b), g.NumNodes())
	}
	if h.NumNodes() != g.NumNodes() {
		return nil, SolveStats{}, fmt.Errorf("ingrass: sparsifier node count mismatch")
	}
	fact, err := precond.FactorizeFor(h.g, g.NumEdges(), opts.internal())
	if err != nil {
		return nil, SolveStats{}, err
	}
	x := make([]float64, g.NumNodes())
	res, err := fact.SolveGraph(ctx, g.g, x, b, opts.internal())
	stats := SolveStats{
		Iterations:  res.Outer.Iterations,
		Residual:    res.Outer.Residual,
		Converged:   res.Outer.Converged,
		PrecondUses: res.PrecondUses,
	}
	if err != nil {
		return x, stats, err
	}
	return x, stats, nil
}
