// Package solver defines the request-scoped solve contract shared by every
// layer of the stack: one Options struct that flows from the HTTP handler
// down to the innermost conjugate-gradient loop unchanged, pooled fixed-size
// scratch Workspaces that eliminate steady-state allocation on the hot solve
// path, and the typed errors that survive layer crossings via errors.Is.
//
// The contract is three values threaded together through every solver entry
// point:
//
//   - a context.Context (cancellation / deadline, checked once per
//     iteration by CG, blocked CG, and Lanczos),
//   - an Options value (tolerances, iteration budgets, worker counts),
//   - a *Workspace checked out from a Pool owned by the long-lived
//     operator or factorization the solve runs against.
//
// Workspaces are goroutine-confined while checked out; Pools are safe for
// concurrent use.
package solver

import (
	"context"
	"errors"
	"fmt"
)

// ErrNoConvergence is returned when an iterative solve exhausts its
// iteration budget before reaching the requested tolerance. The partial
// solution is still returned alongside it, since downstream estimators can
// often tolerate loose solves.
var ErrNoConvergence = errors.New("solver: iteration limit reached before convergence")

// ErrCancelled is returned (wrapped) when a solve is aborted by context
// cancellation or deadline expiry. Use errors.Is(err, ErrCancelled) to
// detect it; the wrapped chain also matches the specific context error
// (context.Canceled or context.DeadlineExceeded).
var ErrCancelled = errors.New("solver: solve cancelled")

// Cancelled wraps a context error so that errors.Is matches both
// ErrCancelled and the specific cause.
func Cancelled(cause error) error {
	return fmt.Errorf("%w: %w", ErrCancelled, cause)
}

// CheckCancel returns the wrapped cancellation error if ctx is done, nil
// otherwise. It is the per-iteration check every solver loop runs.
func CheckCancel(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return Cancelled(err)
	}
	return nil
}

// Options is the one knob set for the whole solver stack. A zero value
// means "all defaults". The same struct configures the solve (Tol,
// MaxIter) and operator parallelism and layout (Workers, Format), so a
// request body like {"tol": 1e-6, "max_iter": 500} reaches the CG loop
// without translation layers.
type Options struct {
	// Tol is the relative residual target ||r|| <= Tol*||b||. Default 1e-8.
	Tol float64
	// MaxIter bounds outer iterations. If 0, a default of 10*n clamped to
	// [50, 20000] is derived; an explicit caller-supplied value is used
	// verbatim and never clamped.
	MaxIter int
	// InnerTol and InnerIters (defaults 1e-2 and 25) configure a truncated
	// Jacobi-PCG on the sparsifier. No solve path reads them: the
	// preconditioner is an exact factorization. They remain only for the
	// per-layer probe in perfbench, which times such a truncated solve
	// through Inner.
	InnerTol   float64
	InnerIters int
	// Workers bounds goroutines for parallel operator application; 0 means
	// serial. It is honored at operator/factorization construction time:
	// shared factorizations freeze their worker count, so a per-request
	// override cannot race against concurrent solves.
	Workers int
	// Format selects the frozen operator's sparse storage layout. Like
	// Workers it is honored at operator/factorization construction time
	// (sparse.LapOperator.SetFormat): FormatAuto lets the freeze path pick
	// by padding-ratio heuristic, FormatCSR/FormatSELL force a layout.
	Format Format
}

// Format names a frozen sparse-operator storage layout.
type Format uint8

const (
	// FormatAuto defers the CSR/SELL choice to the freeze-time heuristic
	// (operator size and predicted SELL padding ratio).
	FormatAuto Format = iota
	// FormatCSR forces the row-major compressed-sparse-row layout.
	FormatCSR
	// FormatSELL forces the sliced-ELLPACK (SELL-C-σ) layout.
	FormatSELL
)

// String returns the CLI/metrics name of the format.
func (f Format) String() string {
	switch f {
	case FormatCSR:
		return "csr"
	case FormatSELL:
		return "sell"
	default:
		return "auto"
	}
}

// ParseFormat maps a CLI/JSON name onto a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "auto":
		return FormatAuto, nil
	case "csr":
		return FormatCSR, nil
	case "sell":
		return FormatSELL, nil
	}
	return FormatAuto, fmt.Errorf("solver: unknown operator format %q (want auto, csr, or sell)", s)
}

// WithDefaults fills unset fields for a system of dimension n. Only the
// derived MaxIter default is clamped to 20000; an explicit MaxIter passes
// through untouched.
func (o Options) WithDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		m := 10 * n
		if m > 20000 {
			m = 20000
		}
		if m < 50 {
			m = 50
		}
		o.MaxIter = m
	}
	if o.InnerTol <= 0 {
		o.InnerTol = 1e-2
	}
	if o.InnerIters <= 0 {
		o.InnerIters = 25
	}
	return o
}

// Override returns o with every field explicitly set in req replacing o's
// value. It is how engine-level defaults merge with per-request options.
func (o Options) Override(req Options) Options {
	if req.Tol > 0 {
		o.Tol = req.Tol
	}
	if req.MaxIter > 0 {
		o.MaxIter = req.MaxIter
	}
	if req.InnerTol > 0 {
		o.InnerTol = req.InnerTol
	}
	if req.InnerIters > 0 {
		o.InnerIters = req.InnerIters
	}
	if req.Workers > 0 {
		o.Workers = req.Workers
	}
	if req.Format != FormatAuto {
		o.Format = req.Format
	}
	return o
}

// Inner derives the option set of a truncated Jacobi-PCG on the
// sparsifier (see InnerTol). Only the perfbench probe calls it. Call it on
// an Options that already has defaults applied, so InnerIters/InnerTol are
// set.
func (o Options) Inner() Options {
	return Options{Tol: o.InnerTol, MaxIter: o.InnerIters, Workers: o.Workers, Format: o.Format}
}
