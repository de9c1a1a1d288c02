package sparse

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

func randomConnectedGraph(seed uint64, n, extra int) *graph.Graph {
	r := vecmath.NewRNG(seed)
	g := graph.New(n, n+extra)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)], r.Range(0.1, 10))
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, r.Range(0.1, 10))
		}
	}
	return g
}

// Property: the Laplacian solver produces a true pseudo-inverse action —
// L (L^+ b) = b for mean-zero b, and the solution is mean-zero.
func TestSolverPseudoInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnectedGraph(seed, 25, 40)
		s := NewLaplacianSolver(g, solver.Options{Tol: 1e-11})
		r := vecmath.NewRNG(seed ^ 0x5)
		b := make([]float64, 25)
		r.FillNormal(b)
		vecmath.CenterMean(b)
		x := make([]float64, 25)
		if _, err := s.Solve(context.Background(), x, b); err != nil {
			return false
		}
		if math.Abs(vecmath.Sum(x)) > 1e-6*(1+vecmath.NormInf(x)) {
			return false
		}
		lx := make([]float64, 25)
		g.LapMul(lx, x)
		vecmath.Sub(lx, lx, b)
		return vecmath.Norm2(lx) <= 1e-6*vecmath.Norm2(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: effective resistance via SolvePair matches the quadratic-form
// identity R(p, q) = b_pq' L^+ b_pq >= 0 and is symmetric.
func TestSolvePairSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnectedGraph(seed, 20, 30)
		s := NewLaplacianSolver(g, solver.Options{Tol: 1e-11})
		r := vecmath.NewRNG(seed ^ 0x9)
		for k := 0; k < 8; k++ {
			p, q := r.Intn(20), r.Intn(20)
			a, err1 := s.SolvePair(context.Background(), p, q)
			b, err2 := s.SolvePair(context.Background(), q, p)
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(a-b) > 1e-7*(1+math.Abs(a)) {
				return false
			}
			if p != q && a <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: CG agrees with the dense oracle on random SPD
// systems (Laplacian + small diagonal shift).
func TestCGAgainstDenseOracleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnectedGraph(seed, 15, 20)
		const shift = 0.5
		lop := NewLapOperator(g)
		op := &FuncOperator{N: 15, Fn: func(dst, x []float64) {
			lop.Apply(dst, x)
			for i := range dst {
				dst[i] += shift * x[i]
			}
		}}
		r := vecmath.NewRNG(seed ^ 0x77)
		b := make([]float64, 15)
		r.FillNormal(b)

		dense := DenseLaplacian(g)
		for i := 0; i < 15; i++ {
			dense.Add(i, i, shift)
		}
		want, err := vecmath.SolveSPD(dense, b)
		if err != nil {
			return false
		}

		x1 := make([]float64, 15)
		if _, err := CG(context.Background(), op, x1, b, nil, nil, solver.Options{Tol: 1e-12}); err != nil {
			return false
		}
		for i := range want {
			if math.Abs(x1[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
