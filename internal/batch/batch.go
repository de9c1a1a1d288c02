// Package batch is the query-execution scheduler of the batched query
// engine: it admits concurrent solve and effective-resistance requests into
// a bounded queue, coalesces requests that target the same snapshot
// generation within a small time/size window, and hands each sealed group
// to an executor that runs it as one blocked multi-RHS solve (see
// sparse.BlockCG and service's group executor).
//
// The scheduler is generic over the execution target T (the service layer
// instantiates it with its *Snapshot), which keeps the grouping machinery
// free of any dependency on the serving layer above it. Two invariants the
// grouping maintains:
//
//   - A coalesced group never spans generations: groups are keyed by the
//     generation the submitter captured, so requests racing a write-batch
//     publication land in distinct groups and each executes against exactly
//     the snapshot its caller saw.
//   - A cancelled request masks its column without aborting its group: the
//     request's context rides into the blocked solve as a per-column
//     context, and the scheduler completes the request's future
//     independently of its groupmates.
//
// Groups are keyed by (generation, option set): coalesced columns share
// one option set, so requests only ever share a block with peers that ask
// for identical solver knobs — silently dropping a custom tolerance would
// be worse than losing the batching win on a rare request. The common case
// (every client sending the same tolerance) coalesces fully.
package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ingrass/internal/solver"
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("batch: scheduler closed")

// Options configures a Scheduler. The zero value means all defaults.
type Options struct {
	// Window is how long an open group waits for companions before it seals
	// anyway. Default 200µs — far below a warm solve, so under load groups
	// fill to MaxBlock and the window only bounds idle-time latency.
	Window time.Duration
	// MaxBlock seals a group at this many coalesced right-hand sides.
	// Default 8; the executor's kernels cap it (sparse.MaxBlockWidth).
	MaxBlock int
	// QueueCap bounds admitted-but-unexecuted requests; further submitters
	// block (backpressure) until capacity frees or their context expires.
	// Default 1024.
	QueueCap int
	// Workers is the number of executor goroutines draining sealed groups.
	// Default GOMAXPROCS.
	Workers int
	// OnGroup, when non-nil, is invoked once per executed (or directly
	// recorded) group with its width in right-hand sides — the hook the
	// serving layer uses to feed its block-fill histogram. It runs on
	// executor goroutines and must be cheap and non-blocking.
	OnGroup func(width int)
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 200 * time.Microsecond
	}
	if o.MaxBlock <= 0 {
		o.MaxBlock = 8
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Kind discriminates what a request's column computes.
type Kind uint8

const (
	// KindSolve is a Laplacian solve: B is the right-hand side and the
	// solution lands in X.
	KindSolve Kind = iota
	// KindPair is an effective-resistance query: the executor builds the
	// basis right-hand side for (U, V) from pooled scratch and reads the
	// resistance off the solved column.
	KindPair
)

// Req is one column of a coalesced blocked solve: the request inputs, the
// per-request context (masking its column on cancellation), and the result
// fields the executor fills before the scheduler completes the future.
// Create with fields set, Submit it, then Wait; result fields must not be
// read until Wait (or Done) reports completion.
type Req struct {
	Ctx  context.Context
	Kind Kind
	X, B []float64 // KindSolve: solution (written in place) and rhs
	U, V int       // KindPair: endpoints
	Opts solver.Options

	// Results, owned by the executor until the future completes.
	Iterations  int
	Residual    float64
	Converged   bool
	PrecondUses int
	Resistance  float64
	Err         error

	gen       uint64
	done      chan struct{}
	submitted time.Time
}

// Done is closed once the request's group has executed (or the request was
// rejected).
func (r *Req) Done() <-chan struct{} { return r.done }

// Gen returns the generation the request executed against.
func (r *Req) Gen() uint64 { return r.gen }

// SubmittedAt returns when the request was admitted by Submit (zero before
// admission). The executor uses it to backdate a batch-group trace span so
// the span covers queue wait as well as execution.
func (r *Req) SubmittedAt() time.Time { return r.submitted }

// Wait blocks until the request completes or ctx is cancelled. A nil error
// means the result fields are safe to read (including a per-column Err);
// ctx.Err() means the caller abandoned the wait and must NOT touch the
// request's buffers — its column is still in flight until Done closes.
func (r *Req) Wait(ctx context.Context) error {
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// groupKey identifies a coalescing unit: requests must agree on both the
// snapshot generation and the full solver option set to share a block.
type groupKey struct {
	gen  uint64
	opts solver.Options
}

// group is one coalescing unit: same-key requests sealed together.
type group[T any] struct {
	target T
	key    groupKey
	reqs   []*Req
	sealed bool
	timer  *time.Timer
}

// Runner executes one sealed group against its target, filling each
// request's result fields. The scheduler completes the futures afterwards.
type Runner[T any] func(target T, reqs []*Req)

// Stats are the scheduler's monitoring counters.
type Stats struct {
	batches   atomic.Uint64 // blocked groups executed
	columns   atomic.Uint64 // right-hand sides across all groups
	coalesced atomic.Uint64 // requests that shared a group with others
	depth     atomic.Int64  // admitted, not yet executed
}

// StatsView is a plain copy of the counters for reporting.
type StatsView struct {
	// BatchesFormed counts executed blocked groups; RequestsCoalesced the
	// requests that rode in a group of width >= 2. ColumnsTotal /
	// BatchesFormed is the average block fill.
	BatchesFormed     uint64
	ColumnsTotal      uint64
	RequestsCoalesced uint64
	QueueDepth        int64
}

// AvgBlockFill returns the mean group width (0 before any group ran).
func (v StatsView) AvgBlockFill() float64 {
	if v.BatchesFormed == 0 {
		return 0
	}
	return float64(v.ColumnsTotal) / float64(v.BatchesFormed)
}

// Scheduler coalesces same-generation requests into blocked groups and
// drives them through a fixed set of executor goroutines. Safe for any
// number of concurrent submitters.
type Scheduler[T any] struct {
	opts Options
	run  Runner[T]

	mu   sync.Mutex
	open map[groupKey]*group[T]

	execQ chan *group[T]
	sem   chan struct{}
	quit  chan struct{}
	wg    sync.WaitGroup
	// inflight counts dispatches between sealing (under mu, closed
	// re-checked) and their send/fail resolution, so Close can wait for
	// them before its final queue drain — otherwise a descheduled dispatch
	// could land a group in execQ after the drain, stranding its futures.
	inflight sync.WaitGroup
	closed   atomic.Bool
	busy     atomic.Int32 // executors currently inside a Runner
	stats    Stats
}

// New starts a scheduler whose sealed groups are executed by run.
func New[T any](opts Options, run Runner[T]) *Scheduler[T] {
	s := &Scheduler[T]{
		opts: opts.withDefaults(),
		run:  run,
		open: make(map[groupKey]*group[T]),
		quit: make(chan struct{}),
	}
	s.execQ = make(chan *group[T], s.opts.Workers)
	s.sem = make(chan struct{}, s.opts.QueueCap)
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.exec()
	}
	return s
}

// Submit admits one request against the given generation/target; it joins
// the open group for (gen, r.Opts) or opens one. solo bypasses coalescing
// entirely (a width-1 group). Submit blocks while the admission queue is
// full; ctx (the request's own context) bounds that wait.
func (s *Scheduler[T]) Submit(ctx context.Context, gen uint64, target T, r *Req, solo bool) error {
	if s.closed.Load() {
		return ErrClosed
	}
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.quit:
			return ErrClosed
		}
	}
	r.gen = gen
	r.done = make(chan struct{})
	r.submitted = time.Now()
	s.stats.depth.Add(1)

	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		s.admitRelease(1)
		return ErrClosed
	}
	key := groupKey{gen: gen, opts: r.Opts}
	if solo {
		s.inflight.Add(1)
		s.mu.Unlock()
		s.dispatch(&group[T]{target: target, key: key, reqs: []*Req{r}, sealed: true})
		return nil
	}
	g := s.open[key]
	if g == nil {
		g = &group[T]{target: target, key: key}
		s.open[key] = g
		g.timer = time.AfterFunc(s.opts.Window, func() { s.sealOnTimer(g) })
	}
	g.reqs = append(g.reqs, r)
	if len(g.reqs) >= s.opts.MaxBlock {
		g.sealed = true
		delete(s.open, key)
		g.timer.Stop()
		s.inflight.Add(1)
		s.mu.Unlock()
		s.dispatch(g)
		return nil
	}
	s.mu.Unlock()
	return nil
}

// sealOnTimer seals a group whose coalescing window elapsed. If every
// executor is busy and the group still has room, sealing now would only
// fragment it — execution cannot start until a worker frees anyway — so
// the timer re-arms and the group keeps filling (group-commit batching:
// under sustained load, groups grow to MaxBlock while the previous block
// executes, and the window only ever bounds idle-time latency).
func (s *Scheduler[T]) sealOnTimer(g *group[T]) {
	s.mu.Lock()
	if g.sealed || s.open[g.key] != g {
		s.mu.Unlock()
		return
	}
	if int(s.busy.Load()) >= s.opts.Workers && len(g.reqs) < s.opts.MaxBlock {
		g.timer.Reset(s.opts.Window)
		s.mu.Unlock()
		return
	}
	g.sealed = true
	delete(s.open, g.key)
	s.inflight.Add(1)
	s.mu.Unlock()
	s.dispatch(g)
}

// dispatch hands a sealed group to the executors (or fails it on shutdown).
// Callers hold an inflight token taken under mu; quit being closed bounds
// the send, so the token is always released.
func (s *Scheduler[T]) dispatch(g *group[T]) {
	defer s.inflight.Done()
	select {
	case s.execQ <- g:
	case <-s.quit:
		s.fail(g, ErrClosed)
	}
}

// exec is one executor goroutine: run groups until shutdown.
func (s *Scheduler[T]) exec() {
	defer s.wg.Done()
	for {
		select {
		case g := <-s.execQ:
			s.runGroup(g)
		case <-s.quit:
			return
		}
	}
}

// runGroup executes one group and completes its futures.
func (s *Scheduler[T]) runGroup(g *group[T]) {
	w := len(g.reqs)
	s.admitRelease(w)
	s.recordGroup(w)
	s.busy.Add(1)
	s.run(g.target, g.reqs)
	s.busy.Add(-1)
	for _, r := range g.reqs {
		close(r.done)
	}
}

// recordGroup accounts one executed group of the given width.
func (s *Scheduler[T]) recordGroup(w int) {
	s.stats.batches.Add(1)
	s.stats.columns.Add(uint64(w))
	if w > 1 {
		s.stats.coalesced.Add(uint64(w))
	}
	if s.opts.OnGroup != nil {
		s.opts.OnGroup(w)
	}
}

// RecordDirect accounts a blocked group executed outside the scheduler (the
// explicit SolveBatch / resistance-sweep path), so block-fill stats cover
// every blocked execution.
func (s *Scheduler[T]) RecordDirect(w int) { s.recordGroup(w) }

// admitRelease returns n admission slots.
func (s *Scheduler[T]) admitRelease(n int) {
	s.stats.depth.Add(int64(-n))
	for i := 0; i < n; i++ {
		<-s.sem
	}
}

// fail completes every request of a group with err.
func (s *Scheduler[T]) fail(g *group[T], err error) {
	s.admitRelease(len(g.reqs))
	for _, r := range g.reqs {
		r.Err = err
		close(r.done)
	}
}

// Stats snapshots the counters.
func (s *Scheduler[T]) Stats() StatsView {
	return StatsView{
		BatchesFormed:     s.stats.batches.Load(),
		ColumnsTotal:      s.stats.columns.Load(),
		RequestsCoalesced: s.stats.coalesced.Load(),
		QueueDepth:        s.stats.depth.Load(),
	}
}

// Close stops the executors and fails every request that has not started
// executing. Groups already inside a Runner complete normally.
func (s *Scheduler[T]) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.quit)
	s.wg.Wait()
	s.mu.Lock()
	groups := make([]*group[T], 0, len(s.open))
	for _, g := range s.open {
		g.sealed = true
		g.timer.Stop()
		groups = append(groups, g)
	}
	s.open = map[groupKey]*group[T]{}
	s.mu.Unlock()
	for _, g := range groups {
		s.fail(g, ErrClosed)
	}
	// Wait out dispatches that sealed before closed flipped: quit is
	// closed, so each resolves promptly (enqueue or fail), and the drain
	// below then catches anything that made it into the queue.
	s.inflight.Wait()
	for {
		select {
		case g := <-s.execQ:
			s.fail(g, ErrClosed)
		default:
			return
		}
	}
}
