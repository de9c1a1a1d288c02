package sparse

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// blockRHS builds w mean-zero right-hand sides for an n-node Laplacian.
func blockRHS(n, w int, seed uint64) [][]float64 {
	rng := vecmath.NewRNG(seed)
	bs := make([][]float64, w)
	for j := range bs {
		bs[j] = make([]float64, n)
		rng.FillNormal(bs[j])
		vecmath.CenterMean(bs[j])
	}
	return bs
}

func zeroBlock(n, w int) [][]float64 {
	xs := make([][]float64, w)
	for j := range xs {
		xs[j] = make([]float64, n)
	}
	return xs
}

// bitsEqual reports exact bitwise equality of two vectors.
func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBlockCGWidthOneBitIdentical is the acceptance property: a width-1
// BlockCG must be bit-for-bit the same solve as CG — same iterate, same
// iteration count, same residual — with and without a preconditioner, for
// serial and pooled operators.
func TestBlockCGWidthOneBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, workers := range []int{1, 4} {
		for _, usePre := range []bool{false, true} {
			for seed := uint64(1); seed <= 5; seed++ {
				g := randomConnectedGraph(seed, 60, 90)
				op := NewLapOperator(g)
				op.SetWorkers(workers)
				proj := &ProjectedOperator{Inner: op}
				b := blockRHS(g.NumNodes(), 1, seed)[0]

				var pre Preconditioner
				var bpre BlockPreconditioner
				if usePre {
					pre = op.Jacobi()
					bpre = op.Jacobi()
				}
				opts := solver.Options{Tol: 1e-9}

				xCG := make([]float64, g.NumNodes())
				res, errCG := CG(context.Background(), proj, xCG, b, pre, nil, opts)

				xBlk := zeroBlock(g.NumNodes(), 1)
				out := make([]ColumnResult, 1)
				if err := BlockCG(context.Background(), proj, BlockSpec{X: xBlk, B: [][]float64{b}, Out: out}, bpre, nil, nil, opts); err != nil {
					t.Fatalf("seed %d workers %d pre %v: BlockCG: %v", seed, workers, usePre, err)
				}

				if !bitsEqual(xCG, xBlk[0]) {
					t.Fatalf("seed %d workers %d pre %v: width-1 iterate differs from CG", seed, workers, usePre)
				}
				cr := out[0]
				if cr.Iterations != res.Iterations || cr.Converged != res.Converged ||
					math.Float64bits(cr.Residual) != math.Float64bits(res.Residual) {
					t.Fatalf("seed %d workers %d pre %v: stats differ: CG %+v err=%v, block %+v",
						seed, workers, usePre, res, errCG, cr)
				}
				if (errCG == nil) != (cr.Err == nil) {
					t.Fatalf("seed %d workers %d pre %v: error mismatch: CG %v, block %v",
						seed, workers, usePre, errCG, cr.Err)
				}
			}
		}
	}
}

// treePrecond applies the exact pseudo-inverse of a spanning tree's
// Laplacian, held as a dense matrix: a fixed, non-diagonal, exact subgraph
// solve of the same kind as the sparsifier factor the service installs.
type treePrecond struct{ pinv *vecmath.Dense }

func newTreePrecond(t *testing.T, g *graph.Graph) *treePrecond {
	t.Helper()
	n := g.NumNodes()
	keep := make([]int, n-1)
	for i := range keep {
		keep[i] = i // randomConnectedGraph lays its spanning tree down first
	}
	tree := g.Subgraph(keep)
	lap := vecmath.NewDense(n, n)
	for _, e := range tree.Edges() {
		lap.Add(e.U, e.U, e.W)
		lap.Add(e.V, e.V, e.W)
		lap.Add(e.U, e.V, -e.W)
		lap.Add(e.V, e.U, -e.W)
	}
	pinv := vecmath.NewDense(n, n)
	unit := make([]float64, n)
	for j := 0; j < n; j++ {
		unit[j] = 1
		col, err := vecmath.PseudoInverseApply(lap, unit)
		if err != nil {
			t.Fatal(err)
		}
		unit[j] = 0
		for i, v := range col {
			pinv.Set(i, j, v)
		}
	}
	return &treePrecond{pinv: pinv}
}

func (p *treePrecond) Precond(dst, src []float64) { p.pinv.MulVec(dst, src) }

func (p *treePrecond) PrecondBlock(dst, src [][]float64) {
	for j := range src {
		p.pinv.MulVec(dst[j], src[j])
	}
}

// TestBlockFlexibleCGWidthOneBitIdentical pins the width-1 property for
// the outer loop of every preconditioned service solve. That loop was once
// a flexible CG around an inner solve; it is now BlockCG with an exact
// subgraph preconditioner, which treePrecond stands in for here.
func TestBlockFlexibleCGWidthOneBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := randomConnectedGraph(seed, 50, 70)
		op := NewLapOperator(g)
		proj := &ProjectedOperator{Inner: op}
		pre := newTreePrecond(t, g)
		b := blockRHS(g.NumNodes(), 1, seed+10)[0]
		opts := solver.Options{Tol: 1e-9}

		xCG := make([]float64, g.NumNodes())
		res, err := CG(context.Background(), proj, xCG, b, pre, nil, opts)
		if err != nil || !res.Converged {
			t.Fatalf("seed %d: CG res=%+v err=%v", seed, res, err)
		}

		xBlk := zeroBlock(g.NumNodes(), 1)
		out := make([]ColumnResult, 1)
		if err := BlockCG(context.Background(), proj, BlockSpec{X: xBlk, B: [][]float64{b}, Out: out}, pre, nil, nil, opts); err != nil {
			t.Fatalf("seed %d: BlockCG: %v", seed, err)
		}
		if !bitsEqual(xCG, xBlk[0]) {
			t.Fatalf("seed %d: width-1 preconditioned iterate differs from CG", seed)
		}
		if out[0].Iterations != res.Iterations || out[0].Converged != res.Converged {
			t.Fatalf("seed %d: stats differ: %+v vs %+v", seed, res, out[0])
		}
	}
}

// TestBlockCGMaskedMatchesIndependent is the masking property: columns of a
// blocked solve with per-column convergence masking must match independent
// single-vector solves within tolerance. (The lockstep recurrences are
// mathematically independent, so in practice they agree bit-for-bit; the
// tolerance guards the property, not the implementation.)
func TestBlockCGMaskedMatchesIndependent(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := randomConnectedGraph(seed+20, 80, 140)
		n := g.NumNodes()
		op := NewLapOperator(g)
		proj := &ProjectedOperator{Inner: op}
		const w = 5
		// Structurally different columns (random, localized basis pairs,
		// smooth ramp) converge at different iterations, exercising the
		// masking/compaction path.
		bs := blockRHS(n, w, seed)
		vecmath.Basis(bs[1], 0, n-1)
		vecmath.Basis(bs[2], 1, n/2)
		for i := range bs[3] {
			bs[3][i] = float64(i)
		}
		vecmath.CenterMean(bs[3])
		opts := solver.Options{Tol: 1e-8}

		xs := zeroBlock(n, w)
		out := make([]ColumnResult, w)
		if err := BlockCG(context.Background(), proj, BlockSpec{X: xs, B: bs, Out: out}, op.Jacobi(), nil, nil, opts); err != nil {
			t.Fatalf("seed %d: BlockCG: %v", seed, err)
		}
		iters := make(map[int]bool)
		for j := 0; j < w; j++ {
			if !out[j].Converged {
				t.Fatalf("seed %d column %d did not converge: %+v", seed, j, out[j])
			}
			iters[out[j].Iterations] = true

			solo := make([]float64, n)
			res, err := CG(context.Background(), proj, solo, bs[j], op.Jacobi(), nil, opts)
			if err != nil {
				t.Fatalf("seed %d column %d solo: %v", seed, j, err)
			}
			if res.Iterations != out[j].Iterations {
				t.Errorf("seed %d column %d: %d block iterations vs %d solo", seed, j, out[j].Iterations, res.Iterations)
			}
			num, den := 0.0, vecmath.Norm2(solo)
			for i := range solo {
				d := solo[i] - xs[j][i]
				num += d * d
			}
			if den > 0 && math.Sqrt(num)/den > 1e-10 {
				t.Errorf("seed %d column %d: blocked solution deviates %g from independent solve",
					seed, j, math.Sqrt(num)/den)
			}
		}
		if len(iters) < 2 {
			t.Fatalf("seed %d: columns all converged at the same iteration (%v); masking untested", seed, iters)
		}
	}
}

// TestBlockCGColumnCancellation: a cancelled per-column context masks that
// column (recorded as cancelled) without disturbing the others; a cancelled
// group context aborts every remaining column.
func TestBlockCGColumnCancellation(t *testing.T) {
	g := gridGraph(12, 12)
	n := g.NumNodes()
	op := NewLapOperator(g)
	proj := &ProjectedOperator{Inner: op}
	const w = 3
	bs := blockRHS(n, w, 7)
	xs := zeroBlock(n, w)
	out := make([]ColumnResult, w)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	colCtx := []context.Context{nil, cancelled, nil}
	if err := BlockCG(context.Background(), proj, BlockSpec{X: xs, B: bs, ColCtx: colCtx, Out: out}, op.Jacobi(), nil, nil, solver.Options{Tol: 1e-8}); err != nil {
		t.Fatalf("BlockCG: %v", err)
	}
	if !errors.Is(out[1].Err, solver.ErrCancelled) {
		t.Fatalf("cancelled column: want ErrCancelled, got %v", out[1].Err)
	}
	for _, j := range []int{0, 2} {
		if out[j].Err != nil || !out[j].Converged {
			t.Fatalf("column %d disturbed by neighbor cancellation: %+v", j, out[j])
		}
	}

	// Whole-group cancellation.
	xs2 := zeroBlock(n, w)
	out2 := make([]ColumnResult, w)
	err := BlockCG(cancelled, proj, BlockSpec{X: xs2, B: bs, Out: out2}, op.Jacobi(), nil, nil, solver.Options{})
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("group cancellation: want ErrCancelled, got %v", err)
	}
	for j := range out2 {
		if !errors.Is(out2[j].Err, solver.ErrCancelled) {
			t.Fatalf("column %d: want ErrCancelled, got %v", j, out2[j].Err)
		}
	}
}

// TestBlockCGZeroAndEmpty covers degenerate inputs: an empty block is a
// no-op and a zero rhs column converges immediately to zero.
func TestBlockCGZeroAndEmpty(t *testing.T) {
	g := gridGraph(6, 6)
	op := NewLapOperator(g)
	proj := &ProjectedOperator{Inner: op}
	if err := BlockCG(context.Background(), proj, BlockSpec{}, nil, nil, nil, solver.Options{}); err != nil {
		t.Fatalf("empty block: %v", err)
	}
	n := g.NumNodes()
	bs := [][]float64{make([]float64, n), blockRHS(n, 1, 3)[0]}
	xs := zeroBlock(n, 2)
	vecmath.Fill(xs[0], 42) // must be overwritten with zeros
	out := make([]ColumnResult, 2)
	if err := BlockCG(context.Background(), proj, BlockSpec{X: xs, B: bs, Out: out}, nil, nil, nil, solver.Options{}); err != nil {
		t.Fatal(err)
	}
	if !out[0].Converged || vecmath.Norm2(xs[0]) != 0 {
		t.Fatalf("zero rhs column: %+v, |x| = %g", out[0], vecmath.Norm2(xs[0]))
	}
	if !out[1].Converged {
		t.Fatalf("nonzero column: %+v", out[1])
	}
}

// TestBlockCGWidthOverflow: a block wider than MaxBlockWidth is rejected
// with a structural error, not a panic.
func TestBlockCGWidthOverflow(t *testing.T) {
	g := gridGraph(4, 4)
	op := NewLapOperator(g)
	n := g.NumNodes()
	w := MaxBlockWidth + 1
	xs, bs := zeroBlock(n, w), blockRHS(n, w, 1)
	out := make([]ColumnResult, w)
	if err := BlockCG(context.Background(), op, BlockSpec{X: xs, B: bs, Out: out}, nil, nil, nil, solver.Options{}); err == nil {
		t.Fatal("want width-overflow error")
	}
}
