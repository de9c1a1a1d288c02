package service

import (
	"context"
	"math"
	"testing"

	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// blockRHS builds w distinct mean-zero right-hand sides.
func blockRHS(n, w int, seed int) [][]float64 {
	bs := make([][]float64, w)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = math.Sin(float64(i*(j+seed+1) + seed))
		}
		vecmath.CenterMean(bs[j])
	}
	return bs
}

// TestSolveBlockIntoMatchesSolveInto: every column of a snapshot's blocked
// solve must be bit-identical to an independent SolveInto against the same
// snapshot — blocking must never change an answer.
func TestSolveBlockIntoMatchesSolveInto(t *testing.T) {
	e := newEngine(t, 16, 16, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	const w = 4
	bs := blockRHS(n, w, 1)
	xs := blockRHS(n, w, 9) // nonzero garbage; must be overwritten
	out := make([]sparse.ColumnResult, w)
	ctx := context.Background()
	opts := solver.Options{Tol: 1e-8}
	bst, err := snap.SolveBlockInto(ctx, xs, bs, out, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bst.Generation != snap.Gen || bst.PrecondUses == 0 {
		t.Fatalf("block stats: %+v", bst)
	}
	for j := 0; j < w; j++ {
		if out[j].Err != nil || !out[j].Converged {
			t.Fatalf("column %d: %+v", j, out[j])
		}
		solo := make([]float64, n)
		st, err := snap.SolveInto(ctx, solo, bs[j], opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Iterations != out[j].Iterations {
			t.Errorf("column %d: %d blocked vs %d solo iterations", j, out[j].Iterations, st.Iterations)
		}
		for i := range solo {
			if math.Float64bits(solo[i]) != math.Float64bits(xs[j][i]) {
				t.Fatalf("column %d entry %d: blocked %g != solo %g", j, i, xs[j][i], solo[i])
			}
		}
	}
	if v := e.Stats(); v.BatchesFormed != 1 || v.AvgBlockFill != w {
		t.Fatalf("block stats: %d blocks, fill %g; want 1 block of %d", v.BatchesFormed, v.AvgBlockFill, w)
	}
}

// TestWarmSolveAllocationFreeBlocked is the blocked counterpart of the
// warm-solve allocation gate: once the factorization, the pooled blocked
// solve state, and the workspaces are warm, a width-4 SolveBlockInto must
// not allocate.
func TestWarmSolveAllocationFreeBlocked(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	e := newEngine(t, 16, 16, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	const w = 4
	bs := blockRHS(n, w, 1)
	xs := blockRHS(n, w, 5)
	out := make([]sparse.ColumnResult, w)
	ctx := context.Background()
	opts := solver.Options{Tol: 1e-8}
	for i := 0; i < 3; i++ {
		if _, err := snap.SolveBlockInto(ctx, xs, bs, out, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := snap.SolveBlockInto(ctx, xs, bs, out, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.0 {
		t.Fatalf("warm blocked SolveBlockInto allocates %.2f objects/op, want ~0", allocs)
	}
}
