package precond

import (
	"context"
	"fmt"
	"sync"

	"ingrass/internal/graph"
	"ingrass/internal/obs/trace"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// Factorization is the reusable, immutable half of a sparsifier
// preconditioner: the grounded LDLᵀ factor of L_H and the engine-level
// solve defaults. Building it is the expensive part (CSR assembly plus the
// elimination); everything it holds is read-only afterwards, so one Factorization can back any number of concurrent
// solves. The service layer builds one per snapshot generation and keys its
// cache on that generation, which is how repeated solves against an
// unchanged graph skip re-factorization.
//
// Per-call mutable state (scratch workspace, counters, spans) lives in a
// pooled solveState checked out for the duration of each solve, so warm
// solves allocate nothing.
type Factorization struct {
	n    int
	h    *graph.Graph
	chol *ldl           // nil when the fill cap tripped: solves use G's Jacobi
	jac  *sparse.Jacobi // H's diagonal, set with chol == nil (see begin)
	opts solver.Options // defaults applied; Workers frozen here
	sp   statePool

	hopOnce sync.Once
	hop     *sparse.LapOperator // built on first Operator call
}

// Factorize is FactorizeFor with H's own edge count standing in for
// |E_G|, for callers that have no system graph at hand.
func Factorize(h *graph.Graph, opts solver.Options) (*Factorization, error) {
	return FactorizeFor(h, h.NumEdges(), opts)
}

// FactorizeFor freezes the sparsifier h into a reusable preconditioner: it
// eliminates L_H by minimum degree (see eliminate) unless the factor would
// hold more than maxFillRatio·systemEdges entries, in which case solves
// fall back to the system operator's Jacobi diagonal under the same CG
// loop. systemEdges is |E_G| of the graph the factorization will
// precondition. opts supplies the engine-level defaults every solve
// against this factorization starts from; its Workers and Format configure
// the operator Operator builds. Solves run on the system operator's own
// parallelism, so per-request Workers overrides have no effect here.
func FactorizeFor(h *graph.Graph, systemEdges int, opts solver.Options) (*Factorization, error) {
	if h.NumNodes() == 0 {
		return nil, fmt.Errorf("precond: empty sparsifier")
	}
	csr := graph.NewCSR(h)
	f := &Factorization{
		n:    h.NumNodes(),
		h:    h,
		chol: eliminate(csr, maxFillRatio*systemEdges),
		opts: opts.WithDefaults(h.NumNodes()),
	}
	if f.chol == nil {
		f.jac = sparse.NewJacobi(csr.Degree)
	}
	f.sp.p.New = func() any {
		return &solveState{f: f, ws: solver.NewWorkspace(f.n)}
	}
	return f, nil
}

// Dim returns the node count of the factorized sparsifier.
func (f *Factorization) Dim() int { return f.n }

// FactorNNZ returns the number of off-diagonal entries in the factor of
// L_H, or 0 when the fill cap tripped and solves run Jacobi-PCG instead.
func (f *Factorization) FactorNNZ() int {
	if f.chol == nil {
		return 0
	}
	return f.chol.nnz()
}

// Operator returns the frozen Laplacian operator of the factorized
// sparsifier, with the factorization's Workers and Format, building it on
// the first call. Solves never apply it — the factor replaces it — so only
// callers that time or inspect H's SpMV pay for it.
func (f *Factorization) Operator() *sparse.LapOperator {
	f.hopOnce.Do(func() {
		f.hop = sparse.NewLapOperator(f.h)
		f.hop.SetWorkers(f.opts.Workers)
		f.hop.SetFormat(f.opts.Format)
	})
	return f.hop
}

// Options returns the factorization's effective (defaults-applied) options.
func (f *Factorization) Options() solver.Options { return f.opts }

// Solve runs conjugate gradients on sys x = b preconditioned by exact
// solves with L_H. b is mean-centered internally (Laplacian systems are
// only consistent on the complement of ones); the solution written into x
// is mean-zero. sys must have dimension Dim; if it is not already a
// *sparse.ProjectedOperator it is projected in place without allocating.
//
// opts overrides the factorization defaults field-wise for this request
// (Tol, MaxIter; Workers is the system operator's — see FactorizeFor). ctx aborts the
// solve within one iteration of cancellation, returning partial stats
// alongside a solver.ErrCancelled-wrapped error.
//
// Safe for any number of concurrent callers; each call checks a private
// solve state out of the factorization's pool.
func (f *Factorization) Solve(ctx context.Context, sys sparse.Operator, x, b []float64, opts solver.Options) (SolveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sys.Dim() != f.n {
		return SolveResult{}, fmt.Errorf("precond: system dim %d != sparsifier dim %d", sys.Dim(), f.n)
	}
	if len(x) != f.n || len(b) != f.n {
		return SolveResult{}, fmt.Errorf("precond: Solve dims x=%d b=%d n=%d", len(x), len(b), f.n)
	}
	eff := f.opts.Override(opts)

	st := f.sp.get()
	defer f.sp.put(st)
	op := st.begin(sys)
	st.spans[0] = trace.FromContext(ctx).StartChild(trace.SpanSolveOuter)

	mark := st.ws.Mark()
	defer st.ws.Release(mark)
	st.y = st.ws.Take()
	rhs := st.ws.Take()
	copy(rhs, b)
	vecmath.CenterMean(rhs)
	vecmath.Zero(x)
	res, err := sparse.CG(ctx, op, x, rhs, st, st.ws, eff)
	vecmath.CenterMean(x)
	st.spans[0].SetAttr(trace.AttrIterations, int64(res.Iterations))
	st.spans[0].SetAttr(trace.AttrPrecondApplies, int64(st.applications))
	st.spans[0].End()
	return SolveResult{Outer: res, PrecondUses: st.applications}, err
}

// SolveGraph is Solve against a one-shot graph G: it freezes G's Laplacian
// operator per call (O(N+E)), so prefer Solve with a cached operator for
// repeated systems.
func (f *Factorization) SolveGraph(ctx context.Context, g *graph.Graph, x, b []float64, opts solver.Options) (SolveResult, error) {
	eff := f.opts.Override(opts)
	gop := sparse.NewLapOperator(g)
	gop.SetWorkers(eff.Workers)
	gop.SetFormat(eff.Format)
	return f.Solve(ctx, gop, x, b, opts)
}
