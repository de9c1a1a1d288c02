// Package precond turns a spectral sparsifier into a preconditioner for
// Laplacian solves — the application that motivates the whole GRASS line:
// solving L_G x = b with conjugate gradients preconditioned by exact solves
// with the much sparser L_H converges in O(sqrt(kappa(L_G, L_H)))
// iterations, and a good sparsifier keeps that kappa small while the
// solves with L_H stay cheap.
//
// Factorize eliminates L_H once into a sparse LDLᵀ factor (greedy
// minimum-degree order; a spanning tree plus a few off-tree edges leaves a
// small core and little fill), so each preconditioner application is two
// triangular sweeps — the support-tree preconditioner of Vaidya and
// Spielman–Teng. The preconditioner is linear and fixed, so the solve is
// plain PCG: sparse.CG for one right-hand side, sparse.BlockCG for a
// coalesced block. A sparsifier whose factor would fill past a fixed cap
// falls back to Jacobi-PCG on G instead.
//
// Factorization is the shared, immutable half; each solve checks a pooled,
// goroutine-confined solve state (workspace, counters, spans) out of the
// factorization, so the warm solve path allocates nothing.
package precond

import (
	"sync"

	"ingrass/internal/obs/trace"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
)

// SolveResult reports a preconditioned solve.
type SolveResult struct {
	Outer sparse.CGResult
	// PrecondUses counts preconditioner applications.
	PrecondUses int
}

// solveState is the per-call mutable half of a solve, single or blocked:
// the scratch workspace, the application counter, the trace spans, and the
// bookkeeping a blocked solve needs. It implements sparse.Preconditioner
// and sparse.BlockPreconditioner, both applying the factor (or the Jacobi
// fallback) column by column. States are pooled on the Factorization and
// confined to one solve call tree while checked out.
type solveState struct {
	f            *Factorization
	ws           *solver.Workspace
	y            []float64      // sweep scratch, taken from ws per solve
	jac          *sparse.Jacobi // non-nil when the factorization fell back
	applications int
	// callerProj is a reusable projection wrapper for system operators
	// that arrive unprojected, avoiding a per-solve allocation.
	callerProj sparse.ProjectedOperator

	sc  sparse.BlockScratch
	rhs [][]float64 // header arena for the centered rhs block

	// spans holds one outer-solve span per original column; each
	// application records a child under the spans of the columns it
	// covers, which the blocked solver reports through SetActiveColumns.
	// traced gates the bookkeeping so untraced solves pay one boolean
	// check per application.
	spans      [sparse.MaxBlockWidth]trace.Span
	activeCols [sparse.MaxBlockWidth]int
	activeN    int
	traced     bool
}

// begin readies a checked-out state for a solve of sys and returns sys
// projected onto the complement of ones.
func (st *solveState) begin(sys sparse.Operator) *sparse.ProjectedOperator {
	st.applications = 0
	st.traced = false
	st.activeN = 0
	st.jac = nil
	if st.f.chol == nil {
		st.jac = jacobiOf(sys, st.f.jac)
	}
	if op, ok := sys.(*sparse.ProjectedOperator); ok {
		return op
	}
	st.callerProj.Inner = sys
	return &st.callerProj
}

// jacobiOf returns the Jacobi preconditioner of the system operator,
// looking through a projection; operators without one get fallback.
func jacobiOf(sys sparse.Operator, fallback *sparse.Jacobi) *sparse.Jacobi {
	if p, ok := sys.(*sparse.ProjectedOperator); ok {
		sys = p.Inner
	}
	if j, ok := sys.(interface{ Jacobi() *sparse.Jacobi }); ok {
		return j.Jacobi()
	}
	return fallback
}

// apply is one column's preconditioner application.
func (st *solveState) apply(dst, src []float64) {
	if st.jac != nil {
		st.jac.Precond(dst, src)
		return
	}
	st.f.chol.solve(dst, src, st.y)
}

// Precond computes dst = L_H⁺ src (mean-centered) for a single solve.
func (st *solveState) Precond(dst, src []float64) {
	st.applications++
	defer st.spans[0].StartChild(trace.SpanPrecondApply).End()
	st.apply(dst, src)
}

// SetActiveColumns records which original columns the next PrecondBlock
// application covers (sparse.ActiveColumnsAware).
func (st *solveState) SetActiveColumns(cols []int) {
	if !st.traced {
		return
	}
	st.activeN = copy(st.activeCols[:], cols)
}

// PrecondBlock applies the preconditioner to every active column. Column
// j's arithmetic is the single-column Precond's, so blocked and
// independent solves agree column for column.
func (st *solveState) PrecondBlock(dst, src [][]float64) {
	st.applications++
	m := len(src)
	if st.traced && st.activeN == m {
		var spans [sparse.MaxBlockWidth]trace.Span
		for i := 0; i < m; i++ {
			spans[i] = st.spans[st.activeCols[i]].StartChild(trace.SpanPrecondApply)
		}
		defer func() {
			for i := 0; i < m; i++ {
				spans[i].End()
			}
		}()
	}
	for j := range dst {
		st.apply(dst[j], src[j])
	}
}

var (
	_ sparse.Preconditioner      = (*solveState)(nil)
	_ sparse.BlockPreconditioner = (*solveState)(nil)
)

// statePool wraps sync.Pool with typed checkout.
type statePool struct {
	p sync.Pool
}

func (sp *statePool) get() *solveState { return sp.p.Get().(*solveState) }
func (sp *statePool) put(st *solveState) {
	st.callerProj.Inner = nil
	st.y = nil
	st.jac = nil
	st.spans = [sparse.MaxBlockWidth]trace.Span{}
	sp.p.Put(st)
}
