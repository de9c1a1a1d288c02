package precond

import (
	"context"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

func grid(r, c int) *graph.Graph {
	g := graph.New(r*c, 2*r*c)
	id := func(i, j int) int { return i*c + j }
	rng := vecmath.NewRNG(9)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), rng.Range(0.2, 5))
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), rng.Range(0.2, 5))
			}
		}
	}
	return g
}

func TestFactorizeErrors(t *testing.T) {
	if _, err := Factorize(graph.New(0, 0), solver.Options{}); err == nil {
		t.Fatal("expected empty-sparsifier error")
	}
}

func TestSolveCorrectness(t *testing.T) {
	g := grid(15, 15)
	init, err := grass.InitialSparsifier(g, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Factorize(init.H, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	b := make([]float64, n)
	vecmath.NewRNG(2).FillNormal(b)
	vecmath.CenterMean(b)
	x := make([]float64, n)
	res, err := p.SolveGraph(context.Background(), g, x, b, solver.Options{Tol: 1e-9, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outer.Converged {
		t.Fatalf("no convergence: %+v", res)
	}
	// Verify the residual directly.
	lx := make([]float64, n)
	g.LapMul(lx, x)
	vecmath.Sub(lx, lx, b)
	if vecmath.Norm2(lx) > 1e-7*vecmath.Norm2(b) {
		t.Fatalf("residual %v", vecmath.Norm2(lx))
	}
	if res.PrecondUses == 0 {
		t.Fatal("preconditioner never used")
	}
}

func TestSparsifierPrecondBeatsJacobi(t *testing.T) {
	// On a heterogeneous grid, the sparsifier preconditioner should cut
	// outer iterations versus Jacobi alone — the whole point of spectral
	// sparsification.
	g := grid(25, 25)
	init, err := grass.InitialSparsifier(g, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	b := make([]float64, n)
	vecmath.NewRNG(3).FillNormal(b)
	vecmath.CenterMean(b)

	// Jacobi-PCG baseline.
	lop := sparse.NewLapOperator(g)
	proj := &sparse.ProjectedOperator{Inner: lop}
	xJ := make([]float64, n)
	resJ, err := sparse.CG(context.Background(), proj, xJ, b, lop.Jacobi(), nil,
		solver.Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}

	// Sparsifier-preconditioned CG.
	p, err := Factorize(init.H, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	xS := make([]float64, n)
	resS, err := p.Solve(context.Background(), proj, xS, b, solver.Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if resS.Outer.Iterations >= resJ.Iterations {
		t.Fatalf("sparsifier precond did not reduce outer iterations: %d vs %d",
			resS.Outer.Iterations, resJ.Iterations)
	}
}

func TestSolveZeroRHS(t *testing.T) {
	g := grid(4, 4)
	p, err := Factorize(g, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, g.NumNodes())
	vecmath.Fill(x, 3)
	res, err := p.SolveGraph(context.Background(), g, x, make([]float64, g.NumNodes()), solver.Options{})
	if err != nil || !res.Outer.Converged {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if vecmath.Norm2(x) != 0 {
		t.Fatal("zero rhs must give zero solution")
	}
}
