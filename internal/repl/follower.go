package repl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ingrass/internal/service"
	"ingrass/internal/wal"
)

// FollowerOptions configures a follower.
type FollowerOptions struct {
	// Primary is the primary's base URL (e.g. http://127.0.0.1:8080).
	Primary string
	// ID is the stable follower identity the primary keys retention on.
	// Empty runs anonymously: no retention ref, so the primary may prune
	// past this follower at any checkpoint (it then re-bootstraps).
	ID string
	// Engine is the base configuration for the replica engine (solver,
	// snapshot retention, obs registry). Durability and
	// maintenance fields are ignored; the engine is forced read-only.
	Engine service.Options
	// MaxStaleness bounds how long reads keep being served after contact
	// with the primary is lost: past it StaleErr reports ErrReplicaStale
	// (sticky until contact resumes, when it heals automatically). 0 means
	// no bound — the follower serves its last applied generation forever.
	MaxStaleness time.Duration
	// FetchTimeout bounds one checkpoint fetch. Default 60s.
	FetchTimeout time.Duration
	// BackoffMin/BackoffMax shape the reconnect backoff envelope.
	// Defaults 50ms / 10s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// BackoffSeed, when non-zero, makes the reconnect jitter deterministic
	// (tests).
	BackoffSeed int64
	// Client overrides the HTTP client (tests). Streaming requests must
	// not carry a client-level timeout; the default client sets only a
	// header timeout.
	Client *http.Client
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.FetchTimeout <= 0 {
		o.FetchTimeout = 60 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 10 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			ResponseHeaderTimeout: 30 * time.Second,
		}}
	}
	return o
}

// Follower replicates a primary into a local read-only engine: bootstrap
// from checkpoint, then stream and apply the record tail, reconnecting
// with capped exponential backoff + jitter. All methods are safe for
// concurrent use.
type Follower struct {
	opts FollowerOptions
	eng  *service.Engine

	applied      atomic.Uint64 // highest generation applied locally
	primaryGen   atomic.Uint64 // primary's last logged generation, as last heard
	primaryCkGen atomic.Uint64 // primary's checkpoint generation, as last heard
	lastContact  atomic.Int64  // UnixNano of the last successful exchange
	ready        atomic.Bool   // sticky: first full catch-up completed

	appliedRecords atomic.Uint64
	bootstraps     atomic.Uint64
	fetchErrors    atomic.Uint64
	gapRefusals    atomic.Uint64
	crcErrors      atomic.Uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	stop   sync.Once
}

// StartFollower bootstraps a follower from the primary's checkpoint
// (retrying with backoff until ctx is done) and starts its replication
// loop. The returned follower already serves reads at the checkpoint
// generation. Stop it with Stop; the caller closes the engine afterwards.
func StartFollower(ctx context.Context, opts FollowerOptions) (*Follower, error) {
	f := &Follower{opts: opts.withDefaults()}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	bo := newBackoff(f.opts.BackoffMin, f.opts.BackoffMax, f.opts.BackoffSeed)
	for {
		err := f.bootstrap(ctx)
		if err == nil {
			break
		}
		f.fetchErrors.Add(1)
		select {
		case <-ctx.Done():
			f.cancel()
			return nil, fmt.Errorf("repl: bootstrap from %s: %w (last error: %v)", f.opts.Primary, ctx.Err(), err)
		case <-time.After(bo.Next()):
		}
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Engine returns the replica engine the follower applies into.
func (f *Follower) Engine() *service.Engine { return f.eng }

// Stop ends the replication loop. The engine keeps serving reads at the
// last applied generation until the caller closes it.
func (f *Follower) Stop() {
	f.stop.Do(func() {
		f.cancel()
		f.wg.Wait()
	})
}

// touchContact timestamps a successful exchange with the primary.
func (f *Follower) touchContact() {
	f.lastContact.Store(time.Now().UnixNano())
}

// maybeReady latches readiness once the replica has caught up to the
// primary's position as last observed — the "first full replay completed"
// point health checks and the router key on.
func (f *Follower) maybeReady() {
	if !f.ready.Load() && f.applied.Load() >= f.primaryGen.Load() {
		f.ready.Store(true)
	}
}

// bootstrap fetches the primary's newest checkpoint and (re)bases the
// replica engine on it.
func (f *Follower) bootstrap(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, f.opts.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.Primary+PathCheckpoint, nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("repl: checkpoint fetch: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	ck, err := wal.ParseCheckpoint(data)
	if err != nil {
		return err
	}
	if lg, perr := strconv.ParseUint(resp.Header.Get(HeaderLastGen), 10, 64); perr == nil {
		f.primaryGen.Store(lg)
	}
	f.primaryCkGen.Store(ck.Gen)
	switch {
	case f.eng == nil:
		eng, err := service.NewReplica(ck, f.opts.Engine)
		if err != nil {
			return err
		}
		f.eng = eng
		f.applied.Store(ck.Gen)
	case ck.Gen > f.applied.Load():
		if err := f.eng.ResetReplica(ck); err != nil {
			return err
		}
		f.applied.Store(ck.Gen)
	default:
		// Already at or past this checkpoint; nothing to rebase.
	}
	f.bootstraps.Add(1)
	f.touchContact()
	f.maybeReady()
	return nil
}

// run is the replication loop: stream, apply, reconnect with backoff.
func (f *Follower) run() {
	defer f.wg.Done()
	bo := newBackoff(f.opts.BackoffMin, f.opts.BackoffMax, f.opts.BackoffSeed)
	for {
		if f.ctx.Err() != nil {
			return
		}
		err := f.streamOnce()
		if err == nil {
			// Clean window end — reconnect immediately.
			bo.Reset()
			continue
		}
		if f.ctx.Err() != nil {
			return
		}
		f.fetchErrors.Add(1)
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(bo.Next()):
		}
	}
}

// streamOnce opens one /repl/segments stream from the applied generation
// and applies frames until the window closes. A 409 redirect re-bootstraps
// from the checkpoint. Returns nil on a clean end.
func (f *Follower) streamOnce() error {
	from := f.applied.Load()
	u := f.opts.Primary + PathSegments +
		"?from=" + strconv.FormatUint(from, 10) +
		"&follower=" + url.QueryEscape(f.opts.ID)
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		// Our position was pruned under a newer checkpoint: re-bootstrap.
		var rb redirectBody
		json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&rb)
		return f.bootstrap(f.ctx)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("repl: segment fetch: %s", resp.Status)
	}

	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		marker, payload, err := readStreamFrame(br)
		if err == io.EOF {
			return nil // window closed cleanly
		}
		if err != nil {
			// Torn or corrupted transfer: count it, drop the connection,
			// and re-fetch from the applied generation. The damaged frame
			// is never applied.
			f.crcErrors.Add(1)
			return err
		}
		switch marker {
		case frameHeartbeat:
			hb, err := decodeHeartbeat(payload)
			if err != nil {
				f.crcErrors.Add(1)
				return err
			}
			f.primaryGen.Store(hb.lastGen)
			f.primaryCkGen.Store(hb.ckGen)
			f.touchContact()
			f.maybeReady()
		case frameRecord:
			rec, err := wal.DecodeRecord(payload)
			if err != nil {
				f.crcErrors.Add(1)
				return err
			}
			if err := f.apply(rec); err != nil {
				return err
			}
		}
	}
}

// apply replays one record, refusing generation gaps. A gap means the
// primary's log has a hole our position predates (a degraded-durability
// window healed by a checkpoint): if the primary's checkpoint is ahead,
// re-bootstrap through it; otherwise surface the divergence and keep
// serving the last applied generation.
func (f *Follower) apply(rec wal.BatchRecord) error {
	err := f.eng.ApplyRecord(rec)
	if err == nil {
		if rec.Gen > f.applied.Load() {
			f.applied.Store(rec.Gen)
		}
		f.appliedRecords.Add(1)
		f.touchContact()
		f.maybeReady()
		return nil
	}
	if errors.Is(err, service.ErrGenerationGap) {
		f.gapRefusals.Add(1)
		if f.primaryCkGen.Load() > f.applied.Load() {
			return f.bootstrap(f.ctx)
		}
	}
	return err
}

// Applied returns the highest locally applied generation.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Ready reports whether the first full catch-up has completed (sticky).
func (f *Follower) Ready() bool { return f.ready.Load() }

// LagGenerations returns how many generations the replica trails the
// primary's last heard position.
func (f *Follower) LagGenerations() uint64 {
	p, a := f.primaryGen.Load(), f.applied.Load()
	if p > a {
		return p - a
	}
	return 0
}

// LagSeconds returns the seconds since the last successful exchange with
// the primary — the staleness clock MaxStaleness cuts off.
func (f *Follower) LagSeconds() float64 {
	last := f.lastContact.Load()
	if last == 0 {
		return 0
	}
	return time.Since(time.Unix(0, last)).Seconds()
}

// StaleErr returns ErrReplicaStale when the replica is past its staleness
// bound, nil otherwise. The condition heals itself: the next successful
// exchange resets the clock.
func (f *Follower) StaleErr() error {
	if f.opts.MaxStaleness <= 0 {
		return nil
	}
	if time.Duration(time.Now().UnixNano()-f.lastContact.Load()) > f.opts.MaxStaleness {
		return ErrReplicaStale
	}
	return nil
}

// FollowerStats is the follower's flat stats block.
type FollowerStats struct {
	Applied        uint64  `json:"applied_generation"`
	PrimaryGen     uint64  `json:"primary_generation"`
	LagGenerations uint64  `json:"lag_generations"`
	LagSeconds     float64 `json:"lag_seconds"`
	Ready          bool    `json:"ready"`
	Stale          bool    `json:"stale"`
	AppliedRecords uint64  `json:"applied_records"`
	Bootstraps     uint64  `json:"bootstraps"`
	FetchErrors    uint64  `json:"fetch_errors"`
	GapRefusals    uint64  `json:"gap_refusals"`
	CRCErrors      uint64  `json:"crc_errors"`
}

// Stats snapshots the follower's replication counters.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		Applied:        f.applied.Load(),
		PrimaryGen:     f.primaryGen.Load(),
		LagGenerations: f.LagGenerations(),
		LagSeconds:     f.LagSeconds(),
		Ready:          f.ready.Load(),
		Stale:          f.StaleErr() != nil,
		AppliedRecords: f.appliedRecords.Load(),
		Bootstraps:     f.bootstraps.Load(),
		FetchErrors:    f.fetchErrors.Load(),
		GapRefusals:    f.gapRefusals.Load(),
		CRCErrors:      f.crcErrors.Load(),
	}
}
