package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"ingrass"
	"ingrass/internal/obs/trace"
	"ingrass/internal/solver"
)

// cmdServe runs the HTTP front-end over a Service: snapshot-isolated reads
// and batched asynchronous writes against a live incremental sparsifier.
//
// With --data-dir the server is durable: a directory that already holds
// state is recovered (checkpoint + WAL replay; -in is then ignored), an
// empty one is initialized from the -in graph. Every applied write batch is
// logged before it becomes visible, --checkpoint-every drives periodic
// checkpoints while serving, and SIGINT/SIGTERM triggers a final checkpoint
// before exit so the next start replays an empty WAL tail.
//
// With --repl a durable server additionally ships its WAL to followers over
// GET /repl/checkpoint and /repl/segments. With --follow the server is a
// read-only follower of that primary: it bootstraps from the primary's
// checkpoint, replays the record tail through the recovery path, and serves
// the read API at its applied generation (writes answer 403).
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("in", "", "input graph file (required unless -data-dir holds state)")
	addr := fs.String("addr", ":8080", "listen address")
	density := fs.Float64("density", 0.1, "initial sparsifier density")
	target := fs.Float64("target", 0, "target condition number (0 = default)")
	seed := fs.Uint64("seed", 1, "random seed")
	maxBatch := fs.Int("max-batch", 128, "flush the write batch at this many edges")
	flushEvery := fs.Duration("flush-interval", 2*time.Millisecond, "flush a non-empty batch after this interval")
	dataDir := fs.String("data-dir", "", "durable data directory (empty = in-memory only)")
	fsyncMode := fs.String("fsync", "always", "WAL fsync policy: always, interval, or never")
	fsyncEvery := fs.Duration("fsync-every", 100*time.Millisecond, "flush interval for -fsync=interval")
	segmentBytes := fs.Int64("segment-bytes", 64<<20, "WAL segment rotation size")
	ckptEvery := fs.Duration("checkpoint-every", 5*time.Minute, "periodic checkpoint interval with -data-dir (0 = only on shutdown)")
	format := fs.String("format", "auto", "frozen operator storage layout: auto, csr, or sell")
	coalesce := fs.Bool("coalesce", true, "coalesce concurrent single solves into blocked multi-RHS executions")
	batchWindow := fs.Duration("batch-window", 200*time.Microsecond, "coalescing window for the batched query engine")
	batchMax := fs.Int("batch-max", 8, "widest coalesced block (capped at 16)")
	maintain := fs.Bool("maintain", false, "enable closed-loop maintenance: background re-sparsification when a health threshold trips")
	maintainEvery := fs.Duration("maintain-every", 2*time.Second, "health-evaluation cadence for -maintain")
	iterTarget := fs.Float64("iter-target", 0, "mean solve iterations that trigger a rebuild and steer density auto-tuning (0 = off)")
	condThreshold := fs.Float64("cond-threshold", 0, "condition-number estimate that triggers a rebuild (0 = off)")
	churnFactor := fs.Float64("churn-factor", 0, "rebuild once edges churned since setup reach this multiple of the sparsifier size (0 = off)")
	densityTune := fs.Bool("density-tune", false, "auto-tune sparsifier density toward -iter-target at each rebuild")
	replicate := fs.Bool("repl", false, "serve the replication endpoints (/repl/*); requires -data-dir")
	follow := fs.String("follow", "", "run as a read-only follower of this primary base URL (e.g. http://127.0.0.1:8080)")
	followerID := fs.String("follower-id", "", "stable follower identity for primary-side segment retention (default: the listen address)")
	maxStaleness := fs.Duration("max-staleness", 0, "with -follow: refuse reads once out of contact with the primary this long (0 = serve the last applied generation indefinitely)")
	traceSample := fs.Float64("trace-sample", 0.01, "head-sampling probability for request traces (0 = only errors and slow requests are retained)")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "retain any request trace at least this slow")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this extra address (empty = disabled)")
	_ = fs.Parse(args)

	if _, err := solver.ParseFormat(*format); err != nil {
		fatal(err)
	}
	if *follow != "" && *replicate {
		fatal(fmt.Errorf("-follow and -repl are mutually exclusive: a follower does not ship a WAL"))
	}
	if *replicate && *dataDir == "" {
		fatal(fmt.Errorf("-repl requires -data-dir: the write-ahead log is the replication log"))
	}
	opts := ingrass.ServiceOptions{
		Options: ingrass.Options{
			InitialDensity: *density,
			TargetCond:     *target,
			Seed:           *seed,
		},
		MaxBatch:      *maxBatch,
		FlushInterval: *flushEvery,
		Solve:         ingrass.SolveOptions{Format: *format},
		Batch: ingrass.BatchOptions{
			Window:          *batchWindow,
			MaxBlock:        *batchMax,
			CoalesceSingles: *coalesce,
		},
		DataDir:      *dataDir,
		FsyncEvery:   *fsyncEvery,
		SegmentBytes: *segmentBytes,
		Maintenance: ingrass.MaintenanceOptions{
			Enabled:       *maintain,
			Interval:      *maintainEvery,
			IterTarget:    *iterTarget,
			CondThreshold: *condThreshold,
			ChurnFactor:   *churnFactor,
			DensityTune:   *densityTune,
		},
	}
	if *dataDir != "" {
		policy, err := ingrass.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fatal(err)
		}
		opts.Fsync = policy
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	var svc *ingrass.Service
	switch {
	case *follow != "":
		id := *followerID
		if id == "" {
			id = *addr
		}
		var err error
		svc, err = ingrass.Follow(ctx, ingrass.FollowOptions{
			Primary:         *follow,
			ID:              id,
			MaxStaleness:    *maxStaleness,
			Solve:           opts.Solve,
			Batch:           opts.Batch,
			RetainSnapshots: opts.RetainSnapshots,
		})
		if err != nil {
			fatal(err)
		}
		if *dataDir != "" || *in != "" {
			fmt.Fprintln(os.Stderr, "ingrass: -follow replicates the primary's state; ignoring -in/-data-dir")
		}
		fmt.Printf("following %s as %q: bootstrapped at generation %d (%v)\n",
			*follow, id, svc.Generation(), time.Since(start).Round(time.Millisecond))
	case *dataDir != "":
		var err error
		svc, err = ingrass.LoadService(opts)
		switch {
		case err == nil:
			if *in != "" {
				fmt.Fprintf(os.Stderr, "ingrass: -data-dir %s holds state; ignoring -in %s\n", *dataDir, *in)
			}
			fmt.Printf("recovered %s: generation %d (%v)\n",
				*dataDir, svc.Generation(), time.Since(start).Round(time.Millisecond))
		case errors.Is(err, ingrass.ErrNoCheckpoint):
			if *in == "" {
				fatal(fmt.Errorf("-data-dir %s holds no state and no -in graph was given", *dataDir))
			}
			svc, err = ingrass.NewService(loadGraph(*in), opts)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("initialized %s from %s (%v)\n",
				*dataDir, *in, time.Since(start).Round(time.Millisecond))
		default:
			fatal(err)
		}
	case *in != "":
		var err error
		svc, err = ingrass.NewService(loadGraph(*in), opts)
		if err != nil {
			fatal(err)
		}
	default:
		fs.Usage()
		os.Exit(2)
	}
	defer svc.Close()

	if *replicate {
		if _, err := svc.StartReplication(ingrass.ReplicationOptions{}); err != nil {
			fatal(err)
		}
		fmt.Println("replication enabled: shipping WAL on /repl/checkpoint and /repl/segments")
	}

	st := svc.Stats()
	fmt.Printf("serving: %d nodes, %d edges, sparsifier %d edges, generation %d (role %s)\n",
		st.Nodes, st.GraphEdges, st.SparsifierEdges, st.Generation, svc.Role())

	// Request tracing + flight recorder: the recorder's counters land in
	// the same registry /metrics scrapes, and its retained traces serve
	// GET /debug/requests.
	tracer := trace.NewRecorder(trace.Options{
		SampleRate:    *traceSample,
		SlowThreshold: *traceSlow,
	})
	tracer.RegisterMetrics(svc.Metrics())
	registerRuntimeMetrics(svc.Metrics(), start)
	if *debugAddr != "" {
		startDebugServer(*debugAddr)
	}

	// Periodic checkpoints bound the WAL tail a restart must replay.
	if *dataDir != "" && *follow == "" && *ckptEvery > 0 {
		go func() {
			ticker := time.NewTicker(*ckptEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if gen, err := svc.Checkpoint(); err != nil {
						fmt.Fprintf(os.Stderr, "ingrass: periodic checkpoint: %v\n", err)
					} else {
						fmt.Printf("checkpoint at generation %d\n", gen)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	server := &http.Server{Addr: *addr, Handler: newServeMux(svc, tracer)}
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	fmt.Printf("listening on %s\n", *addr)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Println("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = server.Shutdown(shutCtx)
		// The shutdown summary renders straight from the obs registry —
		// the same store /metrics scrapes — so the final printed counters
		// can never disagree with what monitoring collected.
		fmt.Println("final counters:")
		_ = svc.Metrics().WriteText(os.Stdout,
			"ingrass_batch_", "ingrass_http_requests_total",
			"ingrass_solves_total", "ingrass_solve_failures_total")
		if *dataDir != "" && *follow == "" {
			if gen, err := svc.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "ingrass: final checkpoint: %v\n", err)
			} else {
				fmt.Printf("final checkpoint at generation %d\n", gen)
			}
		}
	}
}

// edgeJSON is the wire form of one edge.
type edgeJSON struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w,omitempty"`
}

type edgesRequest struct {
	Edges []edgeJSON `json:"edges"`
}

// solveRequest carries the right-hand side plus the unified solve options.
// Tol/MaxIter flow unchanged down to the PCG loop; DeadlineMS bounds
// wall-clock time via a context deadline. The decoder ignores unknown
// fields, so the retired inner_tol/inner_iters fields of older clients are
// accepted and have no effect.
type solveRequest struct {
	B          []float64 `json:"b"`
	Tol        float64   `json:"tol,omitempty"`
	MaxIter    int       `json:"max_iter,omitempty"`
	DeadlineMS int       `json:"deadline_ms,omitempty"`
}

type solveResponse struct {
	X     []float64          `json:"x"`
	Stats ingrass.SolveStats `json:"stats"`
}

// batchSolveRequest carries many right-hand sides sharing one option set;
// they execute as blocked multi-RHS solves against one snapshot generation.
type batchSolveRequest struct {
	Bs         [][]float64 `json:"bs"`
	Tol        float64     `json:"tol,omitempty"`
	MaxIter    int         `json:"max_iter,omitempty"`
	DeadlineMS int         `json:"deadline_ms,omitempty"`
}

// batchSolveItem is one right-hand side's outcome; X is omitted when the
// column failed (Error set).
type batchSolveItem struct {
	X     []float64          `json:"x,omitempty"`
	Stats ingrass.SolveStats `json:"stats"`
	Error string             `json:"error,omitempty"`
}

type batchSolveResponse struct {
	Results    []batchSolveItem `json:"results"`
	Generation uint64           `json:"generation"`
}

type batchResistanceRequest struct {
	Pairs []edgeJSON `json:"pairs"` // w ignored
}

type batchResistanceItem struct {
	U          int     `json:"u"`
	V          int     `json:"v"`
	Resistance float64 `json:"resistance"`
	Error      string  `json:"error,omitempty"`
}

type batchResistanceResponse struct {
	Results    []batchResistanceItem `json:"results"`
	Generation uint64                `json:"generation"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// fieldError is the structured 400 body for request-validation failures:
// the offending field and a machine-matchable reason alongside the human
// message.
type fieldError struct {
	Error  string `json:"error"`
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

// Validation reasons (fieldError.Reason).
const (
	reasonMissing        = "missing"
	reasonNotAnInteger   = "not_an_integer"
	reasonOutOfRange     = "out_of_range"
	reasonEqualEndpoints = "equal_endpoints"
)

func writeFieldError(w http.ResponseWriter, field, reason, msg string) {
	writeJSON(w, http.StatusBadRequest, fieldError{Error: msg, Field: field, Reason: reason})
}

// parseEndpoint validates one resistance endpoint query parameter: present,
// an integer, and within [0, n). A false return means the 400 has been
// written.
func parseEndpoint(w http.ResponseWriter, r *http.Request, field string, n int) (int, bool) {
	raw := r.URL.Query().Get(field)
	if raw == "" {
		writeFieldError(w, field, reasonMissing, fmt.Sprintf("query parameter %q is required", field))
		return 0, false
	}
	val, err := strconv.Atoi(raw)
	if err != nil {
		writeFieldError(w, field, reasonNotAnInteger, fmt.Sprintf("query parameter %q = %q is not an integer", field, raw))
		return 0, false
	}
	if val < 0 || val >= n {
		writeFieldError(w, field, reasonOutOfRange, fmt.Sprintf("query parameter %q = %d out of range [0, %d)", field, val, n))
		return 0, false
	}
	return val, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// statusClientClosedRequest is the nginx-style status for a client that
// went away mid-request; Go's net/http has no named constant for it.
const statusClientClosedRequest = 499

// solveStatus maps solver errors to HTTP statuses: exhausted iteration
// budgets are 422 (the request was understood but the tolerance is
// unreachable within budget), deadline expiry is 408, a client disconnect
// is 499, and a follower past its staleness bound is 503 (retryable on
// another replica — the router does exactly that). Anything else is a 422
// solver-side failure.
func solveStatus(err error) int {
	switch {
	case errors.Is(err, ingrass.ErrReplicaStale):
		return http.StatusServiceUnavailable
	case errors.Is(err, ingrass.ErrCancelled):
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusRequestTimeout
		}
		return statusClientClosedRequest
	case errors.Is(err, ingrass.ErrNoConvergence):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusUnprocessableEntity
	}
}

// newServeMux wires the service endpoints:
//
//	POST   /edges       {"edges":[{"u":0,"v":1,"w":1.0}]}  insert a batch
//	DELETE /edges       {"edges":[{"u":0,"v":1}]}          delete a batch
//	POST   /solve            {"b":[...], "tol":1e-8}       Laplacian solve
//	POST   /solve/batch      {"bs":[[...],...], "tol":..}  blocked multi-RHS solve
//	GET    /sparsifier       ?gen=&format=text|json        export H
//	GET    /resistance       ?u=&v=                        effective resistance
//	POST   /resistance/batch {"pairs":[{"u":0,"v":5},..]}  blocked resistance sweep
//	POST   /resparsify                                     force a background re-sparsification
//	GET    /stats                                          engine + scheduler + per-endpoint counters (JSON)
//	GET    /metrics                                        Prometheus text exposition
//	GET    /healthz                                        liveness
//	GET    /debug/requests   ?trace=&endpoint=             flight-recorder traces (JSON)
//
// Every handler is wrapped in the httpMetrics middleware (see metrics.go),
// so request latency and response codes land in the same obs registry the
// engine exposes — /stats and /metrics are two renderings of one store.
// The middleware also roots a trace span per request (continuing an
// inbound traceparent header), so a routed request shows up as one
// stitched cross-process trace in /debug/requests.
//
// Concurrent single POST /solve requests against the same generation are
// transparently coalesced into blocked multi-RHS executions when the
// service was started with -coalesce (the default). tracer may be nil
// (requests are served untraced).
func newServeMux(svc *ingrass.Service, tracer *trace.Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	hm := newHTTPMetrics(svc.Metrics(), tracer)

	decodeEdges := func(w http.ResponseWriter, r *http.Request) ([]ingrass.Edge, bool) {
		var req edgesRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return nil, false
		}
		if len(req.Edges) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("no edges in request"))
			return nil, false
		}
		edges := make([]ingrass.Edge, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = ingrass.Edge{U: e.U, V: e.V, W: e.W}
		}
		return edges, true
	}

	// writeResult reports a write outcome. ErrNotDurable is NOT a
	// rejection: the write is applied and visible (retrying would apply it
	// twice), it just isn't crash-safe until the next checkpoint — so the
	// valid result goes out with a warning instead of an error status.
	// Writes against a follower are 403: the client should address the
	// primary (or a router, which forwards writes there).
	writeResult := func(w http.ResponseWriter, res ingrass.WriteResult, err error) {
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, res)
		case errors.Is(err, ingrass.ErrNotDurable):
			writeJSON(w, http.StatusOK, struct {
				ingrass.WriteResult
				Warning string `json:"warning"`
			}{res, err.Error()})
		case errors.Is(err, ingrass.ErrReadOnlyReplica):
			writeError(w, http.StatusForbidden, err)
		default:
			writeError(w, http.StatusUnprocessableEntity, err)
		}
	}

	mux.HandleFunc("POST /edges", hm.wrap(epEdgesAdd, func(w http.ResponseWriter, r *http.Request) {
		edges, ok := decodeEdges(w, r)
		if !ok {
			return
		}
		res, err := svc.AddEdges(r.Context(), edges)
		writeResult(w, res, err)
	}))

	mux.HandleFunc("DELETE /edges", hm.wrap(epEdgesDelete, func(w http.ResponseWriter, r *http.Request) {
		edges, ok := decodeEdges(w, r)
		if !ok {
			return
		}
		res, err := svc.DeleteEdges(r.Context(), edges)
		writeResult(w, res, err)
	}))

	mux.HandleFunc("POST /solve", hm.wrap(epSolve, func(w http.ResponseWriter, r *http.Request) {
		var req solveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		// r.Context() is cancelled when the client disconnects, so an
		// abandoned solve stops burning CPU within one CG iteration.
		ctx := r.Context()
		if req.DeadlineMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
			defer cancel()
		}
		x, stats, err := svc.Solve(ctx, req.B, ingrass.SolveOptions{
			Tol:     req.Tol,
			MaxIter: req.MaxIter,
		})
		if err != nil {
			writeError(w, solveStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, solveResponse{X: x, Stats: stats})
	}))

	mux.HandleFunc("GET /sparsifier", hm.wrap(epSparsifier, func(w http.ResponseWriter, r *http.Request) {
		var (
			h   *ingrass.Graph
			gen uint64
		)
		if q := r.URL.Query().Get("gen"); q != "" {
			g64, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad gen: %w", err))
				return
			}
			snap, ok := svc.SparsifierAt(g64)
			if !ok {
				writeError(w, http.StatusNotFound, fmt.Errorf("generation %d not retained", g64))
				return
			}
			h, gen = snap, g64
		} else {
			h, gen = svc.SparsifierSnapshot()
		}
		if r.URL.Query().Get("format") == "json" {
			edges := h.Edges()
			out := make([]edgeJSON, len(edges))
			for i, e := range edges {
				out[i] = edgeJSON{U: e.U, V: e.V, W: e.W}
			}
			writeJSON(w, http.StatusOK, map[string]any{
				"generation": gen,
				"nodes":      h.NumNodes(),
				"edges":      out,
			})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Ingrass-Generation", strconv.FormatUint(gen, 10))
		if err := h.Write(w); err != nil {
			// Headers are gone; nothing better to do than log.
			fmt.Fprintf(os.Stderr, "ingrass: sparsifier export: %v\n", err)
		}
	}))

	mux.HandleFunc("GET /resistance", hm.wrap(epResistance, func(w http.ResponseWriter, r *http.Request) {
		n := svc.NumNodes()
		u, ok := parseEndpoint(w, r, "u", n)
		if !ok {
			return
		}
		v, ok := parseEndpoint(w, r, "v", n)
		if !ok {
			return
		}
		if u == v {
			writeFieldError(w, "v", reasonEqualEndpoints,
				fmt.Sprintf("u and v are both %d; resistance of a node to itself is trivially 0", u))
			return
		}
		res, gen, err := svc.EffectiveResistance(r.Context(), u, v)
		if err != nil {
			writeError(w, solveStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"u": u, "v": v, "resistance": res, "generation": gen,
		})
	}))

	// Batch endpoints: many queries, one snapshot generation, blocked
	// multi-RHS execution underneath.
	mux.HandleFunc("POST /solve/batch", hm.wrap(epSolveBatch, func(w http.ResponseWriter, r *http.Request) {
		var req batchSolveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if len(req.Bs) == 0 {
			writeFieldError(w, "bs", reasonMissing, "no right-hand sides in request")
			return
		}
		ctx := r.Context()
		if req.DeadlineMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
			defer cancel()
		}
		results, gen, err := svc.SolveBatch(ctx, req.Bs, ingrass.SolveOptions{
			Tol:     req.Tol,
			MaxIter: req.MaxIter,
		})
		if err != nil {
			writeError(w, solveStatus(err), err)
			return
		}
		items := make([]batchSolveItem, len(results))
		for i, res := range results {
			items[i] = batchSolveItem{X: res.X, Stats: res.Stats}
			if res.Err != nil {
				items[i].Error = res.Err.Error()
				items[i].X = nil
			}
		}
		writeJSON(w, http.StatusOK, batchSolveResponse{Results: items, Generation: gen})
	}))

	mux.HandleFunc("POST /resistance/batch", hm.wrap(epResistanceBatch, func(w http.ResponseWriter, r *http.Request) {
		var req batchResistanceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if len(req.Pairs) == 0 {
			writeFieldError(w, "pairs", reasonMissing, "no pairs in request")
			return
		}
		pairs := make([]ingrass.Pair, len(req.Pairs))
		for i, p := range req.Pairs {
			pairs[i] = ingrass.Pair{U: p.U, V: p.V}
		}
		results, gen, err := svc.EffectiveResistanceBatch(r.Context(), pairs)
		if err != nil {
			writeError(w, solveStatus(err), err)
			return
		}
		items := make([]batchResistanceItem, len(results))
		for i, res := range results {
			items[i] = batchResistanceItem{U: res.U, V: res.V, Resistance: res.Resistance}
			if res.Err != nil {
				items[i].Error = res.Err.Error()
			}
		}
		writeJSON(w, http.StatusOK, batchResistanceResponse{Results: items, Generation: gen})
	}))

	// POST /resparsify forces a background setup-basis rebuild + swap — the
	// manual form of what -maintain triggers automatically. 409 when one is
	// already in flight.
	mux.HandleFunc("POST /resparsify", hm.wrap(epResparsify, func(w http.ResponseWriter, r *http.Request) {
		gen, err := svc.ForceResparsify(r.Context())
		if err != nil {
			status := http.StatusUnprocessableEntity
			switch {
			case errors.Is(err, ingrass.ErrRebuildInProgress):
				status = http.StatusConflict
			case errors.Is(err, ingrass.ErrReadOnlyReplica):
				status = http.StatusForbidden
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"generation": gen})
	}))

	mux.HandleFunc("GET /stats", hm.wrap(epStats, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statsResponse{
			ServiceStats: svc.Stats(),
			Endpoints:    hm.view(),
		})
	}))

	mux.HandleFunc("GET /metrics", hm.wrap(epMetrics, metricsHandler(svc.Metrics())))

	// Liveness plus routing hints: role says how this process participates
	// in replication, ready is false on a follower until its first full
	// catch-up with the primary. The status stays 200 while not ready —
	// routers read the body and keep cold followers out of rotation without
	// mistaking them for dead.
	mux.HandleFunc("GET /healthz", hm.wrap(epHealthz, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"role":   svc.Role(),
			"ready":  svc.Ready(),
		})
	}))

	// The flight recorder: the K slowest and all failed request traces per
	// endpoint, newest first, filterable by ?trace= and ?endpoint=.
	mux.HandleFunc("GET /debug/requests", hm.wrap(epDebugRequests, tracer.Handler()))

	// A replication primary additionally ships checkpoints and the WAL
	// record tail; followers and their fetch loops are the only intended
	// clients.
	if rh := svc.Replication(); rh != nil {
		mux.HandleFunc("GET /repl/checkpoint", hm.wrap(epReplCheckpoint, rh.Checkpoint))
		mux.HandleFunc("GET /repl/segments", hm.wrap(epReplSegments, rh.Segments))
		mux.HandleFunc("GET /repl/status", hm.wrap(epReplStatus, rh.Status))
	}

	return mux
}

// statsResponse is the GET /stats body: the engine counters plus the
// per-endpoint HTTP request/failure-mode/latency blocks, both read from the
// same obs registry a /metrics scrape renders.
type statsResponse struct {
	ingrass.ServiceStats
	Endpoints map[string]endpointStats `json:"endpoints"`
}
