package precond

import (
	"context"
	"math"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// randomConnected builds a connected weighted graph on n nodes: a random
// spanning tree plus extra random chords (parallel edges allowed).
func randomConnected(seed uint64, n, extra int) *graph.Graph {
	rng := vecmath.NewRNG(seed)
	g := graph.New(n, n+extra)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v), rng.Range(0.1, 10))
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, rng.Range(0.1, 10))
		}
	}
	return g
}

// relErr is ||got - want|| / ||want||.
func relErr(got, want []float64) float64 {
	var d, w float64
	for i := range want {
		d += (got[i] - want[i]) * (got[i] - want[i])
		w += want[i] * want[i]
	}
	return math.Sqrt(d / w)
}

// oraclePair is a small random graph and its GRASS sparsifier.
func oraclePair(t *testing.T, seed uint64) (*graph.Graph, *graph.Graph) {
	t.Helper()
	n := 20 + int(seed)*7
	g := randomConnected(seed, n, 3*n)
	init, err := grass.InitialSparsifier(g, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, init.H
}

// TestFactorApplyMatchesDensePseudoInverse: one preconditioner application
// is L_H⁺ src, to rounding, for any src (the apply centers its input).
func TestFactorApplyMatchesDensePseudoInverse(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g, h := oraclePair(t, seed)
		f, err := FactorizeFor(h, g.NumEdges(), solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if f.chol == nil {
			t.Fatalf("seed %d: sparsifier of %d edges tripped the fill cap", seed, h.NumEdges())
		}
		n := h.NumNodes()
		src := make([]float64, n)
		vecmath.NewRNG(seed + 100).FillNormal(src)
		want, err := vecmath.PseudoInverseApply(sparse.DenseLaplacian(h), src)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		f.chol.solve(got, src, make([]float64, n))
		if e := relErr(got, want); e > 1e-10 {
			t.Fatalf("seed %d: factor apply vs dense L_H⁺: relative error %.3g", seed, e)
		}
	}
}

// checkAgainstOracle solves L_G x = b through Solve and SolveBlock and
// compares every answer with the dense pseudo-inverse of L_G.
func checkAgainstOracle(t *testing.T, name string, g *graph.Graph, f *Factorization) {
	t.Helper()
	n := g.NumNodes()
	dense := sparse.DenseLaplacian(g)
	proj := &sparse.ProjectedOperator{Inner: sparse.NewLapOperator(g)}
	opts := solver.Options{Tol: 1e-12}
	const w = 3
	xs, bs, wants := make([][]float64, w), make([][]float64, w), make([][]float64, w)
	for j := range bs {
		bs[j] = make([]float64, n)
		vecmath.NewRNG(uint64(j) + 7).FillNormal(bs[j])
		xs[j] = make([]float64, n)
		var err error
		if wants[j], err = vecmath.PseudoInverseApply(dense, bs[j]); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		if _, err := f.Solve(context.Background(), proj, x, bs[j], opts); err != nil {
			t.Fatalf("%s: Solve column %d: %v", name, j, err)
		}
		if e := relErr(x, wants[j]); e > 1e-6 {
			t.Fatalf("%s: Solve column %d: relative error %.3g vs dense L_G⁺", name, j, e)
		}
	}
	out := make([]sparse.ColumnResult, w)
	if _, err := f.SolveBlock(context.Background(), proj, xs, bs, out, opts); err != nil {
		t.Fatalf("%s: SolveBlock: %v", name, err)
	}
	for j := range xs {
		if out[j].Err != nil {
			t.Fatalf("%s: SolveBlock column %d: %v", name, j, out[j].Err)
		}
		if e := relErr(xs[j], wants[j]); e > 1e-6 {
			t.Fatalf("%s: SolveBlock column %d: relative error %.3g vs dense L_G⁺", name, j, e)
		}
	}
}

// TestSolveMatchesDensePseudoInverse is the differential oracle for the
// whole solve path on random graphs and their sparsifiers.
func TestSolveMatchesDensePseudoInverse(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g, h := oraclePair(t, seed)
		f, err := FactorizeFor(h, g.NumEdges(), solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, "random", g, f)
	}
}

// TestFillCapFallsBackToJacobi: preconditioning a hub-heavy social graph
// with itself fills the factor far past the cap; the factorization must
// fall back to Jacobi-PCG on G and still solve correctly.
func TestFillCapFallsBackToJacobi(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FactorizeFor(g, g.NumEdges(), solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.FactorNNZ() != 0 {
		t.Fatalf("factor of %d entries for %d edges did not trip the cap", f.FactorNNZ(), g.NumEdges())
	}
	checkAgainstOracle(t, "fallback", g, f)
}
