package precond

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// ring builds a weighted cycle with a few chords: connected, well-conditioned.
func ring(n int) *graph.Graph {
	g := graph.New(n, 2*n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1+float64(i%3))
	}
	for i := 0; i < n; i += 5 {
		g.AddEdge(i, (i+n/2)%n, 0.5)
	}
	return g
}

func rhsFor(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	vecmath.CenterMean(b)
	return b
}

func TestSolveGraphMatchesSolve(t *testing.T) {
	g := ring(60)
	h := g // self-preconditioning is fine for an equivalence check
	b := rhsFor(60)

	fact, err := Factorize(h, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	xGraph := make([]float64, 60)
	resGraph, err := fact.SolveGraph(context.Background(), g, xGraph, b, solver.Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("graph solve: %v", err)
	}

	xOp := make([]float64, 60)
	resOp, err := fact.Solve(context.Background(), sparse.NewLapOperator(g), xOp, b, solver.Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("operator solve: %v", err)
	}
	if !resGraph.Outer.Converged || !resOp.Outer.Converged {
		t.Fatalf("convergence: graph=%v op=%v", resGraph.Outer.Converged, resOp.Outer.Converged)
	}
	for i := range xGraph {
		if math.Abs(xGraph[i]-xOp[i]) > 1e-6 {
			t.Fatalf("solutions diverge at %d: %v vs %v", i, xGraph[i], xOp[i])
		}
	}
}

// TestFactorizationConcurrentSolves shares one factorization across many
// goroutines under the race detector: each call checks out a private pooled
// solve state, so no two in-flight solves may share scratch.
func TestFactorizationConcurrentSolves(t *testing.T) {
	g := ring(80)
	fact, err := Factorize(g, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gop := sparse.NewLapOperator(g)
	b := rhsFor(80)

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				x := make([]float64, 80)
				res, err := fact.Solve(context.Background(), gop, x, b, solver.Options{Tol: 1e-8})
				if err != nil || !res.Outer.Converged {
					t.Errorf("concurrent solve failed: %v (converged=%v)", err, res.Outer.Converged)
					return
				}
				if res.PrecondUses <= 0 {
					t.Errorf("preconditioner was never applied")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFactorizeEmpty(t *testing.T) {
	if _, err := Factorize(graph.New(0, 0), solver.Options{}); err == nil {
		t.Fatal("want error for empty sparsifier")
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	fact, err := Factorize(ring(20), solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gop := sparse.NewLapOperator(ring(30))
	if _, err := fact.Solve(context.Background(), gop, make([]float64, 30), make([]float64, 30), solver.Options{}); err == nil {
		t.Fatal("want system-dimension error")
	}
	gop20 := sparse.NewLapOperator(ring(20))
	if _, err := fact.Solve(context.Background(), gop20, make([]float64, 5), make([]float64, 20), solver.Options{}); err == nil {
		t.Fatal("want vector-dimension error")
	}
}

// TestFlexibleCGDimensionError covers the blocked solve's structural
// checks (the name dates from the flexible outer solver this package used
// to drive): a wrong system dimension, mismatched widths, an over-wide
// block and a short column are all refused before any work.
func TestFlexibleCGDimensionError(t *testing.T) {
	fact, err := Factorize(ring(20), solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gop := sparse.NewLapOperator(ring(20))
	col := func(w, n int) [][]float64 {
		xs := make([][]float64, w)
		for j := range xs {
			xs[j] = make([]float64, n)
		}
		return xs
	}
	wide := sparse.MaxBlockWidth + 1
	cases := []struct {
		name   string
		sys    sparse.Operator
		xs, bs [][]float64
		out    int
	}{
		{"system dim", sparse.NewLapOperator(ring(30)), col(2, 30), col(2, 30), 2},
		{"widths", gop, col(2, 20), col(3, 20), 2},
		{"out width", gop, col(2, 20), col(2, 20), 1},
		{"too wide", gop, col(wide, 20), col(wide, 20), wide},
		{"column dim", gop, [][]float64{make([]float64, 20), make([]float64, 5)}, col(2, 20), 2},
	}
	for _, c := range cases {
		out := make([]sparse.ColumnResult, c.out)
		if _, err := fact.SolveBlock(context.Background(), c.sys, c.xs, c.bs, out, nil, solver.Options{}); err == nil {
			t.Errorf("%s: want a dimension error", c.name)
		}
	}
}

// TestSolveCancelledContext verifies the acceptance contract: a solve
// issued with an already-cancelled context returns an ErrCancelled-matching
// error without running any outer iteration.
func TestSolveCancelledContext(t *testing.T) {
	g := ring(120)
	fact, err := Factorize(g, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gop := sparse.NewLapOperator(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, 120)
	res, err := fact.Solve(ctx, gop, x, rhsFor(120), solver.Options{})
	if !errors.Is(err, solver.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCancelled/context.Canceled, got %v", err)
	}
	if res.Outer.Iterations != 0 {
		t.Fatalf("cancelled solve ran %d iterations", res.Outer.Iterations)
	}
}
