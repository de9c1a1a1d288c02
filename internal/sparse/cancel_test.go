package sparse

import (
	"context"
	"errors"
	"testing"

	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// cancellingOperator cancels its context during the apply of iteration
// `at`, simulating a client that disconnects mid-solve.
type cancellingOperator struct {
	inner  Operator
	cancel context.CancelFunc
	at     int
	count  int
}

func (c *cancellingOperator) Dim() int { return c.inner.Dim() }

func (c *cancellingOperator) Apply(dst, x []float64) {
	c.count++
	if c.count == c.at {
		c.cancel()
	}
	c.inner.Apply(dst, x)
}

// slowGrid is a system large and ill-conditioned enough that neither solver
// converges within a couple of iterations.
func slowGrid(t testing.TB) (*ProjectedOperator, []float64) {
	t.Helper()
	g := gridGraph(40, 40)
	b := make([]float64, g.NumNodes())
	vecmath.NewRNG(7).FillNormal(b)
	vecmath.CenterMean(b)
	return &ProjectedOperator{Inner: NewLapOperator(g)}, b
}

func TestCGCancelledBeforeStart(t *testing.T) {
	op, b := slowGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, op.Dim())
	res, err := CG(ctx, op, x, b, nil, nil, solver.Options{})
	if !errors.Is(err, solver.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCancelled/context.Canceled, got %v", err)
	}
	if res.Iterations != 0 {
		t.Fatalf("pre-cancelled CG ran %d iterations", res.Iterations)
	}
}

// TestCGCancelMidSolve cancels during iteration 3's operator apply; the
// solve must stop within one iteration of the cancellation.
func TestCGCancelMidSolve(t *testing.T) {
	op, b := slowGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Apply #1 is the initial residual; apply #4 lands inside iteration 3.
	co := &cancellingOperator{inner: op, cancel: cancel, at: 4}
	x := make([]float64, op.Dim())
	res, err := CG(ctx, co, x, b, nil, nil, solver.Options{Tol: 1e-14})
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if res.Iterations > 4 {
		t.Fatalf("CG ran %d iterations past a cancel at apply 4", res.Iterations)
	}
	if res.Iterations == 0 {
		t.Fatal("CG should have completed the in-flight iterations before the cancel")
	}
}

// countingPrecond is a Jacobi preconditioner that counts its applications.
type countingPrecond struct {
	inner *Jacobi
	count int
}

func (c *countingPrecond) Precond(dst, src []float64) {
	c.count++
	c.inner.Precond(dst, src)
}

// TestFlexibleCGCancelMidSolve is the preconditioned counterpart of
// TestCGCancelMidSolve (the name dates from the flexible outer solver that
// preconditioned solves used to run): with a preconditioner installed, a
// cancel at apply 4 must still stop the solve within one iteration.
func TestFlexibleCGCancelMidSolve(t *testing.T) {
	op, b := slowGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co := &cancellingOperator{inner: op, cancel: cancel, at: 4}
	pre := &countingPrecond{inner: op.Inner.(*LapOperator).Jacobi()}
	x := make([]float64, op.Dim())
	res, err := CG(ctx, co, x, b, pre, nil, solver.Options{Tol: 1e-14})
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if res.Iterations > 4 {
		t.Fatalf("preconditioned CG ran %d iterations past a cancel at apply 4", res.Iterations)
	}
	if pre.count > res.Iterations+1 {
		t.Fatalf("preconditioner applied %d times over %d iterations", pre.count, res.Iterations)
	}
}

// TestFlexibleCGCancelledBeforeStart: a preconditioned solve issued with a
// cancelled context runs no iteration and never applies the preconditioner.
func TestFlexibleCGCancelledBeforeStart(t *testing.T) {
	op, b := slowGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pre := &countingPrecond{inner: op.Inner.(*LapOperator).Jacobi()}
	x := make([]float64, op.Dim())
	res, err := CG(ctx, op, x, b, pre, nil, solver.Options{})
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if res.Iterations != 0 || pre.count != 0 {
		t.Fatalf("pre-cancelled preconditioned CG ran %d iterations, %d applications", res.Iterations, pre.count)
	}
}

// cancellingPrecond cancels the solve's context from inside an
// application and leaves dst zeroed — a degenerate direction the solver
// must not mistake for a breakdown.
type cancellingPrecond struct {
	cancel context.CancelFunc
	at     int
	count  int
}

func (c *cancellingPrecond) Precond(dst, src []float64) {
	c.count++
	if c.count >= c.at {
		c.cancel()
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, src)
}

// TestCGCancelInsidePreconditioner: a cancellation landing inside the
// preconditioner leaves z = 0; the solve must report ErrCancelled
// (HTTP 408/499), not a breakdown (422).
func TestCGCancelInsidePreconditioner(t *testing.T) {
	op, b := slowGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pre := &cancellingPrecond{cancel: cancel, at: 3}
	x := make([]float64, op.Dim())
	_, err := CG(ctx, op, x, b, pre, nil, solver.Options{Tol: 1e-14})
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
}

func TestLaplacianSolverCancel(t *testing.T) {
	g := gridGraph(30, 30)
	s := NewLaplacianSolver(g, solver.Options{Tol: 1e-14})
	b := make([]float64, g.NumNodes())
	vecmath.NewRNG(3).FillNormal(b)
	vecmath.CenterMean(b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float64, g.NumNodes())
	res, err := s.Solve(ctx, dst, b)
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if res.Iterations != 0 {
		t.Fatalf("pre-cancelled solve ran %d iterations", res.Iterations)
	}
}
