package precond

import (
	"context"
	"fmt"

	"ingrass/internal/obs/trace"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// SolveBlock runs one blocked PCG solve of sys x[j] = b[j] for up to
// sparse.MaxBlockWidth right-hand sides, preconditioned by the factor of
// L_H: each iteration applies the system operator once to the whole block
// (one traversal of G's structure for all columns) and the factor sweep to
// each active column.
//
// Per-column semantics mirror Solve exactly: every b[j] is mean-centered
// internally, every solution written into x[j] is mean-zero, and column j's
// arithmetic is bit-identical to an independent Solve of that column (the
// lockstep recurrences are mathematically independent; see sparse.BlockCG).
// opts overrides the factorization defaults field-wise for the whole group
// — coalesced requests must share option sets, which the batch scheduler
// guarantees. colCtx optionally carries one context per column: a cancelled
// column is masked out of the block within one iteration and recorded in
// out, without disturbing the remaining columns; ctx cancels the whole
// group. out receives one ColumnResult per column; the returned int is the
// number of (blocked) preconditioner applications. The returned error is
// reserved for structural failures and whole-group cancellation.
//
// Safe for any number of concurrent callers; each call checks a private
// solve state out of the factorization's pool, and the warm path allocates
// nothing.
func (f *Factorization) SolveBlock(ctx context.Context, sys sparse.Operator, xs, bs [][]float64, out []sparse.ColumnResult, colCtx []context.Context, opts solver.Options) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sys.Dim() != f.n {
		return 0, fmt.Errorf("precond: system dim %d != sparsifier dim %d", sys.Dim(), f.n)
	}
	w := len(xs)
	if len(bs) != w || len(out) != w {
		return 0, fmt.Errorf("precond: SolveBlock widths xs=%d bs=%d out=%d", w, len(bs), len(out))
	}
	if w > sparse.MaxBlockWidth {
		return 0, fmt.Errorf("precond: SolveBlock width %d exceeds %d", w, sparse.MaxBlockWidth)
	}
	for j := 0; j < w; j++ {
		if len(xs[j]) != f.n || len(bs[j]) != f.n {
			return 0, fmt.Errorf("precond: SolveBlock column %d dims x=%d b=%d n=%d", j, len(xs[j]), len(bs[j]), f.n)
		}
	}
	eff := f.opts.Override(opts)

	st := f.sp.get()
	defer f.sp.put(st)
	op := st.begin(sys)
	for j := 0; j < w; j++ {
		c := ctx
		if colCtx != nil && colCtx[j] != nil {
			c = colCtx[j]
		}
		st.spans[j] = trace.FromContext(c).StartChild(trace.SpanSolveOuter)
		if st.spans[j].Tracing() {
			st.traced = true
		}
	}

	mark := st.ws.Mark()
	defer st.ws.Release(mark)
	st.y = st.ws.Take()
	rhs := st.rhs[:0]
	for j := 0; j < w; j++ {
		b := st.ws.Take()
		copy(b, bs[j])
		vecmath.CenterMean(b)
		rhs = append(rhs, b)
		vecmath.Zero(xs[j])
	}
	st.rhs = rhs
	err := sparse.BlockCG(ctx, op, sparse.BlockSpec{
		X: xs, B: rhs, ColCtx: colCtx, Out: out,
	}, st, st.ws, &st.sc, eff)
	for j := 0; j < w; j++ {
		vecmath.CenterMean(xs[j])
		st.spans[j].SetAttr(trace.AttrIterations, int64(out[j].Iterations))
		st.spans[j].SetAttr(trace.AttrPrecondApplies, int64(st.applications))
		st.spans[j].End()
	}
	return st.applications, err
}
