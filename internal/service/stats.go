package service

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"

	"ingrass/internal/obs"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
)

// Stats holds the engine's lock-free counters. Readers and the writer
// goroutine bump them concurrently; View materializes a consistent-enough
// plain struct for reporting (individual counters are exact, cross-counter
// skew of a few operations is acceptable for monitoring).
type Stats struct {
	generation     atomic.Uint64
	solves         atomic.Uint64
	solveIters     atomic.Uint64
	precondBuilds  atomic.Uint64
	precondReuses  atomic.Uint64
	resistQueries  atomic.Uint64
	condQueries    atomic.Uint64
	exports        atomic.Uint64
	writeRequests  atomic.Uint64
	writeErrors    atomic.Uint64
	flushes        atomic.Uint64
	flushedAdds    atomic.Uint64
	flushedDeletes atomic.Uint64
	queueDepth     atomic.Int64

	// Solver failure-mode counters, classified per finished solve (or solve
	// column): exhausted iteration budgets, deadline expiries, and client
	// cancellations — the 422/408/499 classes at the HTTP layer.
	solveNoConv   atomic.Uint64
	solveDeadline atomic.Uint64
	solveCancel   atomic.Uint64

	// Durability counters (zero on engines without a store).
	walAppends     atomic.Uint64
	walBytes       atomic.Uint64
	walErrors      atomic.Uint64
	checkpoints    atomic.Uint64
	lastCheckpoint atomic.Uint64

	// Closed-loop maintenance counters (maintenance.go). Triggers are
	// split by reason; rebuilds count published swaps, failures any stage
	// that aborted one. The Float64bits gauges track the tuned TargetCond
	// knob, the iteration-mean trend the tuner steers by, and the latest
	// kappa estimate.
	maintTrigIters  atomic.Uint64
	maintTrigCond   atomic.Uint64
	maintTrigChurn  atomic.Uint64
	maintTrigManual atomic.Uint64
	maintRebuilds   atomic.Uint64
	maintFailures   atomic.Uint64
	maintLastGen    atomic.Uint64
	maintState      atomic.Int32
	maintTargetCond atomic.Uint64 // Float64bits
	maintIterTrend  atomic.Uint64 // Float64bits
	maintKappa      atomic.Uint64 // Float64bits
	gensEvicted     atomic.Uint64

	// Frozen-operator shape of the generation currently served, recorded at
	// factorization time: the storage format of the G operator, its SELL
	// padding ratio (Float64bits), and the arena bytes reserved across the
	// G and H operators (0 when CSR-frozen, which allocates on the heap).
	opFormat   atomic.Uint32
	opPadding  atomic.Uint64
	arenaBytes atomic.Uint64

	// Latency/shape histograms, created when a metrics registry is attached
	// (Options.Obs) and nil otherwise — every observe site records
	// unconditionally through the nil-safe receivers, so the unwired cost is
	// a few predicted branches.
	solveDur   *obs.Histogram // per single-RHS solve, ns
	blockDur   *obs.Histogram // per blocked multi-RHS execution, ns
	solveIterH *obs.Histogram // PCG iterations per solve column

	// Per-format SpMV duration histograms; frozen operators of each format
	// feed their own series, so /metrics attributes kernel time to the
	// layout that produced it.
	spmvDurCSR  *obs.Histogram
	spmvDurSELL *obs.Histogram

	// Maintenance pipeline latencies: the offline basis build (lock-free)
	// and the in-lock adoption swap.
	maintRebuildDur *obs.Histogram
	maintSwapDur    *obs.Histogram
}

// noteMaintTrigger counts one fired maintenance trigger by reason.
func (s *Stats) noteMaintTrigger(r MaintReason) {
	switch r {
	case MaintReasonIters:
		s.maintTrigIters.Add(1)
	case MaintReasonCond:
		s.maintTrigCond.Add(1)
	case MaintReasonChurn:
		s.maintTrigChurn.Add(1)
	case MaintReasonManual:
		s.maintTrigManual.Add(1)
	}
}

// noteOperator records the frozen shape of a generation's G operator after
// factorization.
func (s *Stats) noteOperator(gop *sparse.LapOperator) {
	s.opFormat.Store(uint32(gop.Format()))
	s.opPadding.Store(math.Float64bits(gop.PaddingRatio()))
	_, reserved, _ := gop.ArenaStats()
	s.arenaBytes.Store(uint64(reserved))
}

// spmvObserver returns the SpMV wall-time observer for operators frozen in
// format f, or nil when no metrics registry is attached (keeping the hot
// path free of timing calls).
func (s *Stats) spmvObserver(f solver.Format) func(time.Duration) {
	h := s.spmvDurCSR
	if f == solver.FormatSELL {
		h = s.spmvDurSELL
	}
	if h == nil {
		return nil
	}
	return func(d time.Duration) { h.Observe(int64(d)) }
}

// recordSolveOutcome classifies one finished solve (or solve column) into
// the failure-mode counters. Deadline expiry is checked before the general
// cancellation class because solver.Cancelled wraps both causes under
// ErrCancelled.
func (s *Stats) recordSolveOutcome(err error) {
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		s.solveDeadline.Add(1)
	case errors.Is(err, solver.ErrCancelled):
		s.solveCancel.Add(1)
	case errors.Is(err, solver.ErrNoConvergence):
		s.solveNoConv.Add(1)
	}
}

// StatsView is a plain copy of the counters, JSON-friendly for /stats.
type StatsView struct {
	// Generation is the snapshot generation currently being served.
	Generation uint64 `json:"generation"`
	// Solves counts completed Laplacian solves; SolveIters their total
	// PCG iterations.
	Solves     uint64 `json:"solves"`
	SolveIters uint64 `json:"solve_iters"`
	// PrecondBuilds counts preconditioner factorizations; PrecondReuses
	// counts solves that reused an already-factorized generation. Reuses
	// dominating builds is the cached-preconditioner path working.
	PrecondBuilds uint64 `json:"precond_builds"`
	PrecondReuses uint64 `json:"precond_reuses"`
	// ResistanceQueries / CondQueries / SparsifierExports count the other
	// read endpoints.
	ResistanceQueries uint64 `json:"resistance_queries"`
	CondQueries       uint64 `json:"cond_queries"`
	SparsifierExports uint64 `json:"sparsifier_exports"`
	// WriteRequests counts enqueued write requests; WriteErrors those that
	// failed validation or application.
	WriteRequests uint64 `json:"write_requests"`
	WriteErrors   uint64 `json:"write_errors"`
	// Flushes counts batch applications; FlushedAdds / FlushedDeletes the
	// edges they carried. Flushes << WriteRequests means coalescing works.
	Flushes        uint64 `json:"flushes"`
	FlushedAdds    uint64 `json:"flushed_adds"`
	FlushedDeletes uint64 `json:"flushed_deletes"`
	// QueueDepth is the number of write requests awaiting a flush.
	QueueDepth int64 `json:"queue_depth"`
	// Solver failure-mode counters: iteration-budget exhaustion (HTTP 422),
	// deadline expiry (408), and client cancellation (499).
	SolveNoConvergence    uint64 `json:"solve_no_convergence"`
	SolveDeadlineExceeded uint64 `json:"solve_deadline_exceeded"`
	SolveCancelled        uint64 `json:"solve_cancelled"`
	// SolveLatency digests the per-solve wall-clock histogram in seconds.
	// Zero until a metrics registry is attached (Options.Obs).
	SolveLatency obs.Summary `json:"solve_latency_seconds"`
	// OperatorFormat names the frozen sparse layout ("csr" or "sell") of the
	// generation currently served; OperatorPaddingRatio its SELL padding
	// fraction (0 for CSR) and OperatorArenaBytes the arena bytes reserved
	// by the G operator (0 when CSR-frozen; H is factored, not frozen as an
	// operator).
	OperatorFormat       string  `json:"operator_format"`
	OperatorPaddingRatio float64 `json:"operator_padding_ratio"`
	OperatorArenaBytes   uint64  `json:"operator_arena_bytes"`
	// WALAppends / WALBytes count batches logged to the write-ahead log and
	// their framed size; WALErrors counts failed appends (each one degrades
	// durability until the next successful checkpoint). Checkpoints counts
	// completed checkpoints and LastCheckpointGen the generation the newest
	// one covers.
	WALAppends        uint64 `json:"wal_appends"`
	WALBytes          uint64 `json:"wal_bytes"`
	WALErrors         uint64 `json:"wal_errors"`
	Checkpoints       uint64 `json:"checkpoints"`
	LastCheckpointGen uint64 `json:"last_checkpoint_gen"`
	// Batched query engine counters (filled from the scheduler by
	// Engine.Stats): BatchesFormed counts executed blocked groups,
	// RequestsCoalesced the requests that shared a group with others,
	// AvgBlockFill the mean right-hand sides per group, and BatchQueueDepth
	// the requests admitted but not yet executed. AvgBlockFill near the
	// configured MaxBlock under load means coalescing is working.
	BatchesFormed     uint64  `json:"batches_formed"`
	RequestsCoalesced uint64  `json:"requests_coalesced"`
	AvgBlockFill      float64 `json:"avg_block_fill"`
	BatchQueueDepth   int64   `json:"batch_queue_depth"`
	// Closed-loop maintenance: trigger counts by reason, completed /
	// failed background rebuilds, the generation the newest swap
	// published, the controller state, the (auto-tuned) TargetCond knob
	// position, the iteration-mean trend the loop steers by, the latest
	// periodic kappa estimate, and snapshots evicted by the post-swap GC
	// pressure policy.
	MaintTriggersIterations uint64  `json:"maint_triggers_iterations"`
	MaintTriggersCond       uint64  `json:"maint_triggers_cond"`
	MaintTriggersChurn      uint64  `json:"maint_triggers_churn"`
	MaintTriggersManual     uint64  `json:"maint_triggers_manual"`
	MaintRebuilds           uint64  `json:"maint_rebuilds"`
	MaintFailures           uint64  `json:"maint_failures"`
	MaintLastGeneration     uint64  `json:"maint_last_generation"`
	MaintState              string  `json:"maint_state"`
	MaintTargetCond         float64 `json:"maint_target_cond"`
	MaintIterTrend          float64 `json:"maint_iter_trend"`
	MaintKappa              float64 `json:"maint_kappa"`
	GenerationsEvicted      uint64  `json:"generations_evicted"`
}

// View snapshots the counters.
func (s *Stats) View() StatsView {
	return StatsView{
		Generation:            s.generation.Load(),
		Solves:                s.solves.Load(),
		SolveIters:            s.solveIters.Load(),
		PrecondBuilds:         s.precondBuilds.Load(),
		PrecondReuses:         s.precondReuses.Load(),
		ResistanceQueries:     s.resistQueries.Load(),
		CondQueries:           s.condQueries.Load(),
		SparsifierExports:     s.exports.Load(),
		WriteRequests:         s.writeRequests.Load(),
		WriteErrors:           s.writeErrors.Load(),
		Flushes:               s.flushes.Load(),
		FlushedAdds:           s.flushedAdds.Load(),
		FlushedDeletes:        s.flushedDeletes.Load(),
		QueueDepth:            s.queueDepth.Load(),
		SolveNoConvergence:    s.solveNoConv.Load(),
		SolveDeadlineExceeded: s.solveDeadline.Load(),
		SolveCancelled:        s.solveCancel.Load(),
		SolveLatency:          s.solveDur.Summarize(),
		OperatorFormat:        solver.Format(s.opFormat.Load()).String(),
		OperatorPaddingRatio:  math.Float64frombits(s.opPadding.Load()),
		OperatorArenaBytes:    s.arenaBytes.Load(),
		WALAppends:            s.walAppends.Load(),
		WALBytes:              s.walBytes.Load(),
		WALErrors:             s.walErrors.Load(),
		Checkpoints:           s.checkpoints.Load(),
		LastCheckpointGen:     s.lastCheckpoint.Load(),

		MaintTriggersIterations: s.maintTrigIters.Load(),
		MaintTriggersCond:       s.maintTrigCond.Load(),
		MaintTriggersChurn:      s.maintTrigChurn.Load(),
		MaintTriggersManual:     s.maintTrigManual.Load(),
		MaintRebuilds:           s.maintRebuilds.Load(),
		MaintFailures:           s.maintFailures.Load(),
		MaintLastGeneration:     s.maintLastGen.Load(),
		MaintState:              MaintState(s.maintState.Load()).String(),
		MaintTargetCond:         math.Float64frombits(s.maintTargetCond.Load()),
		MaintIterTrend:          math.Float64frombits(s.maintIterTrend.Load()),
		MaintKappa:              math.Float64frombits(s.maintKappa.Load()),
		GenerationsEvicted:      s.gensEvicted.Load(),
	}
}
