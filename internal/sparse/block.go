package sparse

import (
	"context"
	"fmt"
	"math"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// MaxBlockWidth is the widest multi-RHS block the blocked solvers iterate in
// lockstep — bounded by the multi-vector SpMV's per-row accumulator width.
// Callers with more right-hand sides chunk them into blocks of this size.
const MaxBlockWidth = graph.MaxMulti

// BlockOperator is implemented by operators that can apply themselves to a
// whole block of vectors in one structure traversal. The blocked solvers
// probe for it; operators without it are applied column-by-column.
type BlockOperator interface {
	Operator
	ApplyBlock(dst, x [][]float64)
}

// BlockPreconditioner applies a fixed SPD map dst[j] = M^{-1} src[j] to
// every column of a block. BlockCG hands its whole active column set to one
// application.
type BlockPreconditioner interface {
	PrecondBlock(dst, src [][]float64)
}

// ActiveColumnsAware is optionally implemented by a BlockPreconditioner
// that needs to know which original columns the next PrecondBlock
// application covers — the active set is compacted as columns converge or
// cancel, so positional indices alone lose column identity. The blocked
// solvers call SetActiveColumns immediately before each application with
// the original column index of each active position; the slice is only
// valid for the duration of that application. precond's solve state uses
// this to attribute preconditioner-apply trace spans to the right request.
type ActiveColumnsAware interface {
	SetActiveColumns(cols []int)
}

// ColumnResult is one column's outcome of a blocked solve: the usual CG
// stats plus the column's terminal error — nil on convergence,
// ErrNoConvergence on an exhausted budget, a solver.ErrCancelled-wrapped
// error for a cancelled per-column context, or a breakdown diagnosis. A
// column error never aborts the rest of the block.
type ColumnResult struct {
	CGResult
	Err error
}

// BlockSpec carries one blocked solve's per-column inputs and outputs.
// X and B are the iterate and right-hand-side columns (X is the start guess
// and is overwritten); Out receives one ColumnResult per column. ColCtx is
// optional (nil, or one context per column, individual entries may be nil):
// a cancelled column is masked out of the block within one iteration —
// recorded as cancelled in Out — without disturbing the other columns.
type BlockSpec struct {
	X, B   [][]float64
	ColCtx []context.Context
	Out    []ColumnResult
}

// BlockScratch holds the bookkeeping a blocked solve needs beyond its
// scratch vectors: the compacted active-set headers and the per-column
// scalars. It grows to the widest block it has served and is retained, so
// warm blocked solves allocate nothing. Goroutine-confined, like the
// Workspace it accompanies.
type BlockScratch struct {
	x, b, r, z, p, ap [][]float64
	cctx              []context.Context
	col               []int // active slot -> original column index

	normB, target, rz, rnSq, alpha, beta, s1, s2 []float64
}

func (sc *BlockScratch) ensure(w int) {
	if cap(sc.col) >= w {
		return
	}
	sc.x = make([][]float64, w)
	sc.b = make([][]float64, w)
	sc.r = make([][]float64, w)
	sc.z = make([][]float64, w)
	sc.p = make([][]float64, w)
	sc.ap = make([][]float64, w)
	sc.cctx = make([]context.Context, w)
	sc.col = make([]int, w)
	f := make([]float64, 8*w)
	sc.normB, sc.target = f[0:w], f[w:2*w]
	sc.rz, sc.rnSq = f[2*w:3*w], f[3*w:4*w]
	sc.alpha, sc.beta = f[4*w:5*w], f[5*w:6*w]
	sc.s1, sc.s2 = f[6*w:7*w], f[7*w:8*w]
}

// drop swaps active slot i with the last active slot and shrinks the active
// count. Column recurrences are independent, so reordering the compacted
// arrays never changes any column's arithmetic.
func (sc *BlockScratch) drop(i, m int) int {
	l := m - 1
	sc.x[i], sc.x[l] = sc.x[l], sc.x[i]
	sc.b[i], sc.b[l] = sc.b[l], sc.b[i]
	sc.r[i], sc.r[l] = sc.r[l], sc.r[i]
	sc.z[i], sc.z[l] = sc.z[l], sc.z[i]
	sc.p[i], sc.p[l] = sc.p[l], sc.p[i]
	sc.ap[i], sc.ap[l] = sc.ap[l], sc.ap[i]
	sc.cctx[i], sc.cctx[l] = sc.cctx[l], sc.cctx[i]
	sc.col[i], sc.col[l] = sc.col[l], sc.col[i]
	sc.normB[i], sc.normB[l] = sc.normB[l], sc.normB[i]
	sc.target[i], sc.target[l] = sc.target[l], sc.target[i]
	sc.rz[i], sc.rz[l] = sc.rz[l], sc.rz[i]
	sc.rnSq[i], sc.rnSq[l] = sc.rnSq[l], sc.rnSq[i]
	sc.alpha[i], sc.alpha[l] = sc.alpha[l], sc.alpha[i]
	sc.beta[i], sc.beta[l] = sc.beta[l], sc.beta[i]
	sc.s1[i], sc.s1[l] = sc.s1[l], sc.s1[i]
	sc.s2[i], sc.s2[l] = sc.s2[l], sc.s2[i]
	return l
}

// blockApply resolves the block application path once per solve.
func blockApply(a Operator) func(dst, x [][]float64) {
	if bo, ok := a.(BlockOperator); ok {
		return bo.ApplyBlock
	}
	return func(dst, x [][]float64) {
		for j := range dst {
			a.Apply(dst[j], x[j])
		}
	}
}

// checkBlock validates a BlockSpec against an operator and returns the
// width.
func checkBlock(name string, a Operator, spec BlockSpec) (int, error) {
	n := a.Dim()
	w := len(spec.X)
	if len(spec.B) != w || len(spec.Out) != w {
		return 0, fmt.Errorf("sparse: %s block widths X=%d B=%d Out=%d", name, w, len(spec.B), len(spec.Out))
	}
	if w > MaxBlockWidth {
		return 0, fmt.Errorf("sparse: %s width %d exceeds MaxBlockWidth=%d", name, w, MaxBlockWidth)
	}
	if spec.ColCtx != nil && len(spec.ColCtx) != w {
		return 0, fmt.Errorf("sparse: %s ColCtx length %d != width %d", name, len(spec.ColCtx), w)
	}
	for j := 0; j < w; j++ {
		if len(spec.X[j]) != n || len(spec.B[j]) != n {
			return 0, fmt.Errorf("sparse: %s column %d dims x=%d b=%d n=%d", name, j, len(spec.X[j]), len(spec.B[j]), n)
		}
	}
	return w, nil
}

// enterBlock runs the shared solve prologue: per-column norms, zero-rhs
// short-circuits, scratch take-out, and the initial residual block
// r[j] = b[j] - A x[j]. It returns the active column count (compacted into
// sc's slot arrays).
func enterBlock(a Operator, spec BlockSpec, ws *solver.Workspace, sc *BlockScratch, tol float64, aliasZ bool) int {
	m := 0
	for j := range spec.X {
		spec.Out[j] = ColumnResult{}
		nb := vecmath.Norm2(spec.B[j])
		if nb == 0 {
			vecmath.Zero(spec.X[j])
			spec.Out[j].Converged = true
			continue
		}
		sc.col[m] = j
		sc.x[m], sc.b[m] = spec.X[j], spec.B[j]
		sc.normB[m], sc.target[m] = nb, tol*nb
		sc.r[m] = ws.Take()
		if aliasZ {
			// No preconditioner: z is r itself, exactly as in CG.
			sc.z[m] = sc.r[m]
		} else {
			sc.z[m] = ws.Take()
		}
		sc.p[m] = ws.Take()
		sc.ap[m] = ws.Take()
		if spec.ColCtx != nil {
			sc.cctx[m] = spec.ColCtx[j]
		} else {
			sc.cctx[m] = nil
		}
		m++
	}
	if m == 0 {
		return 0
	}
	blockApply(a)(sc.r[:m], sc.x[:m])
	for i := 0; i < m; i++ {
		vecmath.Sub(sc.r[i], sc.b[i], sc.r[i])
	}
	return m
}

// failBlock records err on every still-active column.
func failBlock(spec BlockSpec, sc *BlockScratch, m int, err error) {
	for i := 0; i < m; i++ {
		spec.Out[sc.col[i]].Err = err
	}
}

// maskCancelled drops every active column whose own context is done,
// recording the cancellation; the rest of the block continues. Returns the
// new active count.
func maskCancelled(spec BlockSpec, sc *BlockScratch, m int) int {
	for i := m - 1; i >= 0; i-- {
		if c := sc.cctx[i]; c != nil {
			if err := solver.CheckCancel(c); err != nil {
				spec.Out[sc.col[i]].Err = err
				m = sc.drop(i, m)
			}
		}
	}
	return m
}

// BlockCG solves A x[j] = b[j] for a block of right-hand sides by
// preconditioned conjugate gradients, iterating every column in lockstep:
// each iteration applies A to all active columns in one structure traversal
// (BlockOperator) and runs the per-column recurrences through one fused
// multi-vector kernel dispatch each. Columns are mathematically independent
// — each keeps its own alpha/beta/residual — so a width-1 block is
// bit-identical to CG, and a column masked out at its own convergence,
// cancellation, or breakdown leaves an iterate identical to the one an
// independent solve would have produced.
//
// ctx aborts the whole block; spec.ColCtx entries abort single columns (see
// BlockSpec). Per-column outcomes land in spec.Out; the returned error is
// reserved for structural failures (dimension mismatches) and whole-block
// cancellation. Scratch vectors come from ws, bookkeeping from sc; both are
// goroutine-confined for the duration of the call.
func BlockCG(ctx context.Context, a Operator, spec BlockSpec, pre BlockPreconditioner, ws *solver.Workspace, sc *BlockScratch, opts solver.Options) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w, err := checkBlock("BlockCG", a, spec)
	if err != nil {
		return err
	}
	if w == 0 {
		return nil
	}
	if err := solver.CheckCancel(ctx); err != nil {
		for j := range spec.Out {
			spec.Out[j] = ColumnResult{Err: err}
		}
		return err
	}
	o := opts.WithDefaults(a.Dim())
	kp := KernelsOf(a)
	apply := blockApply(a)
	if ws == nil {
		ws = solver.NewWorkspace(a.Dim())
	}
	if sc == nil {
		sc = &BlockScratch{}
	}
	sc.ensure(w)

	mark := ws.Mark()
	defer ws.Release(mark)

	m := enterBlock(a, spec, ws, sc, o.Tol, pre == nil)
	if m == 0 {
		return nil
	}

	colsAware, _ := pre.(ActiveColumnsAware)
	if pre != nil {
		if colsAware != nil {
			colsAware.SetActiveColumns(sc.col[:m])
		}
		pre.PrecondBlock(sc.z[:m], sc.r[:m])
		kp.DotNormMulti(sc.z[:m], sc.r[:m], sc.rz[:m], sc.rnSq[:m])
	} else {
		kp.DotMulti(sc.r[:m], sc.r[:m], sc.rnSq[:m])
		copy(sc.rz[:m], sc.rnSq[:m])
	}
	for i := 0; i < m; i++ {
		copy(sc.p[i], sc.z[i])
	}
	for i := m - 1; i >= 0; i-- {
		rn := math.Sqrt(sc.rnSq[i])
		out := &spec.Out[sc.col[i]]
		out.Residual = rn / sc.normB[i]
		if rn <= sc.target[i] {
			out.Converged = true
			m = sc.drop(i, m)
		}
	}

	for k := 0; k < o.MaxIter && m > 0; k++ {
		if err := solver.CheckCancel(ctx); err != nil {
			failBlock(spec, sc, m, err)
			return err
		}
		if m = maskCancelled(spec, sc, m); m == 0 {
			break
		}
		apply(sc.ap[:m], sc.p[:m])
		kp.DotMulti(sc.p[:m], sc.ap[:m], sc.s1[:m])
		for i := m - 1; i >= 0; i-- {
			pap := sc.s1[i]
			if pap <= 0 || math.IsNaN(pap) {
				out := &spec.Out[sc.col[i]]
				out.Iterations = k
				out.Residual = math.Sqrt(sc.rnSq[i]) / sc.normB[i]
				out.Err = fmt.Errorf("sparse: BlockCG breakdown, p'Ap = %g at iteration %d (column %d)", pap, k, sc.col[i])
				m = sc.drop(i, m)
				continue
			}
			sc.alpha[i] = sc.rz[i] / pap
		}
		if m == 0 {
			break
		}
		kp.AXPY2Multi(sc.x[:m], sc.r[:m], sc.alpha[:m], sc.p[:m], sc.ap[:m], sc.rnSq[:m])
		for i := m - 1; i >= 0; i-- {
			rn := math.Sqrt(sc.rnSq[i])
			out := &spec.Out[sc.col[i]]
			out.Iterations = k + 1
			out.Residual = rn / sc.normB[i]
			if rn <= sc.target[i] {
				out.Converged = true
				m = sc.drop(i, m)
			}
		}
		if m == 0 {
			break
		}
		if pre != nil {
			if colsAware != nil {
				colsAware.SetActiveColumns(sc.col[:m])
			}
			pre.PrecondBlock(sc.z[:m], sc.r[:m])
			kp.DotMulti(sc.r[:m], sc.z[:m], sc.s1[:m])
		} else {
			copy(sc.s1[:m], sc.rnSq[:m]) // z aliases r: z'r is the norm just computed
		}
		for i := 0; i < m; i++ {
			sc.beta[i] = sc.s1[i] / sc.rz[i]
			sc.rz[i] = sc.s1[i]
		}
		kp.XPBYIntoMulti(sc.p[:m], sc.z[:m], sc.beta[:m])
	}
	for i := 0; i < m; i++ {
		spec.Out[sc.col[i]].Err = ErrNoConvergence
	}
	return nil
}
