package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ingrass/internal/cond"
	"ingrass/internal/graph"
	"ingrass/internal/precond"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// Snapshot is one immutable generation of the service's state: copy-on-write
// views of the original graph G and the sparsifier H taken after a write
// batch fully landed, plus a lazily-built, generation-cached preconditioner
// factorization. All read operations (solves, resistance queries,
// condition-number checks, exports) run against a Snapshot and therefore
// never observe a half-applied batch.
type Snapshot struct {
	// Gen is the generation number: it increments once per applied write
	// batch.
	Gen uint64
	// G and H are the frozen original graph and sparsifier for this
	// generation. They must be treated as read-only.
	G, H *graph.Graph

	stats *Stats
	sopts solver.Options

	// The factorized preconditioner and the frozen, projected system
	// operator are built on first use and shared by every subsequent solve
	// on this generation — the "skip setup on repeated solves" cache.
	once    sync.Once
	gop     *sparse.LapOperator
	proj    *sparse.ProjectedOperator
	fact    *precond.Factorization
	factErr error
}

func newSnapshot(gen uint64, g, h *graph.Graph, stats *Stats, sopts solver.Options) *Snapshot {
	return &Snapshot{Gen: gen, G: g, H: h, stats: stats, sopts: sopts}
}

// ensureFactorized builds the per-generation solve state exactly once and
// accounts builds vs reuses.
func (s *Snapshot) ensureFactorized() error {
	first := false
	s.once.Do(func() {
		first = true
		gop := sparse.NewLapOperator(s.G)
		gop.SetWorkers(s.sopts.Workers)
		gop.SetFormat(s.sopts.Format)
		if f := s.stats.spmvObserver(gop.Format()); f != nil {
			gop.SetSpMVObserver(f)
		}
		s.gop = gop
		s.proj = &sparse.ProjectedOperator{Inner: gop}
		s.fact, s.factErr = precond.FactorizeFor(s.H, s.G.NumEdges(), s.sopts)
		if s.factErr == nil {
			s.stats.noteOperator(gop)
		}
		s.stats.precondBuilds.Add(1)
	})
	if !first && s.factErr == nil {
		s.stats.precondReuses.Add(1)
	}
	return s.factErr
}

// SolveStats reports one snapshot solve.
type SolveStats struct {
	Generation  uint64
	Iterations  int
	Residual    float64
	Converged   bool
	PrecondUses int
}

// SolveInto computes x = L_G^+ b against this snapshot via sparsifier-
// preconditioned CG, writing the solution into the caller-provided
// x. It is safe to call from any number of goroutines; each call checks a
// pooled, goroutine-confined solve state out of the shared factorization,
// so the warm path allocates nothing. opts overrides the engine solve
// defaults field-wise for this request; ctx aborts the solve within one
// iteration of cancellation (partial stats are still returned).
func (s *Snapshot) SolveInto(ctx context.Context, x, b []float64, opts solver.Options) (SolveStats, error) {
	if len(b) != s.G.NumNodes() {
		return SolveStats{}, fmt.Errorf("service: rhs length %d != %d nodes", len(b), s.G.NumNodes())
	}
	if len(x) != len(b) {
		return SolveStats{}, fmt.Errorf("service: solution length %d != rhs length %d", len(x), len(b))
	}
	if err := s.ensureFactorized(); err != nil {
		return SolveStats{}, err
	}
	start := time.Now()
	res, err := s.fact.Solve(ctx, s.proj, x, b, opts)
	st := SolveStats{
		Generation:  s.Gen,
		Iterations:  res.Outer.Iterations,
		Residual:    res.Outer.Residual,
		Converged:   res.Outer.Converged,
		PrecondUses: res.PrecondUses,
	}
	s.stats.solves.Add(1)
	s.stats.solveIters.Add(uint64(res.Outer.Iterations))
	s.stats.solveDur.ObserveSince(start)
	s.stats.solveIterH.Observe(int64(res.Outer.Iterations))
	s.stats.recordSolveOutcome(err)
	return st, err
}

// BlockSolveStats reports the group-level outcome of one blocked solve.
type BlockSolveStats struct {
	Generation uint64
	// PrecondUses counts blocked preconditioner applications — each one
	// sweeps the factor once per active column.
	PrecondUses int
}

// SolveBlockInto computes x[j] = L_G^+ b[j] for a whole block of right-hand
// sides in one blocked PCG solve against this snapshot: G's CSR structure
// is traversed once per iteration for all columns instead of once per
// column, which is where the batched query engine's throughput comes
// from. Per-column outcomes land in out; colCtx optionally
// cancels single columns (masked without aborting the group — see
// sparse.BlockSpec). Column j's result is bit-identical to an independent
// SolveInto of b[j] with the same options.
//
// Safe for any number of concurrent goroutines; the warm path allocates
// nothing (the per-call blocked solve state is pooled on the shared
// factorization). Blocks wider than sparse.MaxBlockWidth are rejected;
// chunking is the caller's job (the public API chunks transparently).
func (s *Snapshot) SolveBlockInto(ctx context.Context, xs, bs [][]float64, out []sparse.ColumnResult, colCtx []context.Context, opts solver.Options) (BlockSolveStats, error) {
	n := s.G.NumNodes()
	w := len(xs)
	if len(bs) != w || len(out) != w {
		return BlockSolveStats{}, fmt.Errorf("service: block widths xs=%d bs=%d out=%d", w, len(bs), len(out))
	}
	for j := 0; j < w; j++ {
		if len(bs[j]) != n || len(xs[j]) != n {
			return BlockSolveStats{}, fmt.Errorf("service: block column %d dims x=%d b=%d vs %d nodes", j, len(xs[j]), len(bs[j]), n)
		}
	}
	if err := s.ensureFactorized(); err != nil {
		return BlockSolveStats{}, err
	}
	start := time.Now()
	uses, err := s.fact.SolveBlock(ctx, s.proj, xs, bs, out, colCtx, opts)
	elapsed := time.Since(start)
	s.stats.blockDur.Observe(int64(elapsed))
	for j := 0; j < w; j++ {
		s.stats.solves.Add(1)
		s.stats.solveIters.Add(uint64(out[j].Iterations))
		s.stats.solveIterH.Observe(int64(out[j].Iterations))
		// Each coalesced column experienced the block's duration as its
		// service time; recording it keeps solve_duration_seconds_count in
		// step with solves_total whichever path a solve took.
		s.stats.solveDur.Observe(int64(elapsed))
		cerr := err
		if cerr == nil {
			cerr = out[j].Err
		}
		s.stats.recordSolveOutcome(cerr)
	}
	return BlockSolveStats{Generation: s.Gen, PrecondUses: uses}, err
}

// Solve is SolveInto with a freshly allocated solution vector.
func (s *Snapshot) Solve(ctx context.Context, b []float64, opts solver.Options) ([]float64, SolveStats, error) {
	if len(b) != s.G.NumNodes() {
		return nil, SolveStats{}, fmt.Errorf("service: rhs length %d != %d nodes", len(b), s.G.NumNodes())
	}
	x := make([]float64, len(b))
	st, err := s.SolveInto(ctx, x, b, opts)
	if err != nil {
		return x, st, err
	}
	return x, st, nil
}

// EffectiveResistance computes the effective resistance between u and v on
// this snapshot's original graph, reusing the cached preconditioner.
// Scratch comes from the snapshot operator's workspace pool, so warm
// queries allocate nothing.
func (s *Snapshot) EffectiveResistance(ctx context.Context, u, v int) (float64, error) {
	n := s.G.NumNodes()
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, fmt.Errorf("service: resistance endpoints (%d, %d) out of range [0, %d)", u, v, n)
	}
	s.stats.resistQueries.Add(1)
	if u == v {
		return 0, nil
	}
	if err := s.ensureFactorized(); err != nil {
		return 0, err
	}
	pool := s.gop.Workspaces()
	ws := pool.Get()
	defer pool.Put(ws)
	b := ws.Take()
	x := ws.Take()
	vecmath.Basis(b, u, v)
	if _, err := s.fact.Solve(ctx, s.proj, x, b, solver.Options{}); err != nil {
		return 0, err
	}
	return x[u] - x[v], nil
}

// ConditionNumber estimates kappa(L_G, L_H) for this snapshot — the
// spectral-similarity health check. ctx cancellation aborts the power
// iteration between steps.
func (s *Snapshot) ConditionNumber(ctx context.Context, seed uint64) (float64, error) {
	s.stats.condQueries.Add(1)
	res, err := cond.Estimate(ctx, s.G, s.H, cond.Options{
		Seed:          seed,
		LambdaMaxOnly: true,
		Solver:        solver.Options{Workers: s.sopts.Workers},
	})
	if err != nil {
		return 0, err
	}
	return res.Kappa, nil
}

// ExportSparsifier returns this generation's sparsifier view (read-only).
func (s *Snapshot) ExportSparsifier() *graph.Graph {
	s.stats.exports.Add(1)
	return s.H
}

// Registry retains the most recent snapshots by generation so slightly
// stale readers (e.g. an HTTP client paging through an export while writes
// continue) can pin a generation. Older generations are evicted; their
// memory is reclaimed once readers drop them.
type Registry struct {
	mu     sync.RWMutex
	retain int
	ring   []*Snapshot // most recent last
	cur    *Snapshot
}

// NewRegistry retains up to retain snapshots (minimum 1).
func NewRegistry(retain int) *Registry {
	if retain < 1 {
		retain = 1
	}
	return &Registry{retain: retain}
}

// Publish installs snap as the current snapshot.
func (r *Registry) Publish(snap *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur = snap
	r.ring = append(r.ring, snap)
	if len(r.ring) > r.retain {
		r.ring = append(r.ring[:0], r.ring[len(r.ring)-r.retain:]...)
	}
}

// Current returns the latest snapshot.
func (r *Registry) Current() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur
}

// TrimTo evicts all but the newest keep retained snapshots (minimum 1),
// returning how many were dropped. The maintenance swap path uses it as a
// GC pressure valve: generations predating a basis swap hold
// factorizations of a superseded embedding, and clearing the registry's
// references (the backing slots are nilled, not just re-sliced) lets their
// arena reservations and workspace pools free as soon as pinned readers
// drain. The current snapshot is never evicted.
func (r *Registry) TrimTo(keep int) int {
	if keep < 1 {
		keep = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) <= keep {
		return 0
	}
	dropped := len(r.ring) - keep
	kept := copy(r.ring, r.ring[dropped:])
	for i := kept; i < len(r.ring); i++ {
		r.ring[i] = nil
	}
	r.ring = r.ring[:kept]
	return dropped
}

// At returns the retained snapshot with the given generation, if any.
func (r *Registry) At(gen uint64) (*Snapshot, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := len(r.ring) - 1; i >= 0; i-- {
		if r.ring[i].Gen == gen {
			return r.ring[i], true
		}
	}
	return nil, false
}

// Generations lists the retained generations, oldest first.
func (r *Registry) Generations() []uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]uint64, len(r.ring))
	for i, s := range r.ring {
		out[i] = s.Gen
	}
	return out
}
