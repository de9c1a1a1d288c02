package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ingrass/internal/obs"
	"ingrass/internal/obs/trace"
)

// RouterOptions configures the read-fanout router.
type RouterOptions struct {
	// Primary is the write target (and the read fallback of last resort).
	Primary string
	// Replicas are the follower base URLs reads round-robin across.
	Replicas []string
	// HealthEvery is the active health-check interval. Default 500ms.
	HealthEvery time.Duration
	// EjectFor is how long a backend stays out of rotation after a passive
	// failure (transport error, 502, 503). Default 2s.
	EjectFor time.Duration
	// MaxBodyBytes bounds a buffered request body (bodies are buffered so
	// a read can be retried on a different replica). Default
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Client overrides the forwarding HTTP client (tests).
	Client *http.Client
	// Obs, when set, registers router metrics (per-backend request/
	// failure/ejection counters and forward-latency histograms, plus the
	// retry counter) and serves their exposition at GET /metrics.
	Obs *obs.Registry
	// Tracer, when set, roots a client span per routed request, propagates
	// the trace downstream via the traceparent header, and serves
	// GET /debug/requests with backend-side continuations stitched in.
	Tracer *trace.Recorder
}

// DefaultMaxBodyBytes is the router's default request-body cap. Backends
// serving the same API apply it too, so a body the router forwards is never
// refused downstream for its size.
const DefaultMaxBodyBytes = 8 << 20

func (o RouterOptions) withDefaults() RouterOptions {
	if o.HealthEvery <= 0 {
		o.HealthEvery = 500 * time.Millisecond
	}
	if o.EjectFor <= 0 {
		o.EjectFor = 2 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// backendState is the router's live view of one upstream.
type backendState struct {
	url          string
	idx          int          // 0 = primary, 1.. = replicas (span backend attr)
	role         atomic.Value // string, as self-reported by /healthz
	healthy      atomic.Bool
	ready        atomic.Bool
	ejectedUntil atomic.Int64 // UnixNano; passive ejection window
	requests     atomic.Uint64
	failures     atomic.Uint64
	ejections    atomic.Uint64
	dur          *obs.Histogram // forward latency (nil without Obs)
}

func (b *backendState) ejected() bool {
	return time.Now().UnixNano() < b.ejectedUntil.Load()
}

func (b *backendState) available() bool {
	return b.healthy.Load() && b.ready.Load() && !b.ejected()
}

// Router is a thin HTTP fan-out: writes (POST/DELETE /edges, POST
// /resparsify) forward to the primary; every other request round-robins
// across healthy, ready, non-ejected replicas with one retry on a
// different backend, falling back to the primary when no replica
// qualifies. Health is tracked actively (periodic /healthz polls that also
// read the follower's ready flag, so a cold follower is never routed to)
// and passively (transport errors and 502/503 eject the backend for
// EjectFor).
type Router struct {
	opts     RouterOptions
	primary  *backendState
	replicas []*backendState
	next     atomic.Uint64
	retries  atomic.Uint64

	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewRouter builds a router. Call Start to begin health checking, Stop to
// end it.
func NewRouter(opts RouterOptions) *Router {
	rt := &Router{
		opts:    opts.withDefaults(),
		primary: &backendState{url: opts.Primary},
		quit:    make(chan struct{}),
	}
	for i, u := range opts.Replicas {
		rt.replicas = append(rt.replicas, &backendState{url: u, idx: i + 1})
	}
	if reg := rt.opts.Obs; reg != nil {
		rt.registerMetrics(reg)
	}
	return rt
}

// registerMetrics bridges the router's per-backend atomics into reg. The
// backend label vocabulary is the fixed upstream list, closed at
// construction, so cardinality is bounded by the topology.
func (rt *Router) registerMetrics(reg *obs.Registry) {
	for _, b := range rt.backends() {
		b := b
		lbl := obs.Label{Key: "backend", Value: b.url}
		reg.CounterFunc("ingrass_route_requests_total",
			"Requests forwarded per backend",
			func() float64 { return float64(b.requests.Load()) }, lbl)
		reg.CounterFunc("ingrass_route_failures_total",
			"Forward attempts that failed per backend",
			func() float64 { return float64(b.failures.Load()) }, lbl)
		reg.CounterFunc("ingrass_route_ejections_total",
			"Passive health ejections per backend",
			func() float64 { return float64(b.ejections.Load()) }, lbl)
		b.dur = reg.Histogram("ingrass_route_backend_duration_seconds",
			"Forwarded request latency per backend", obs.ScaleSeconds, lbl)
	}
	reg.CounterFunc("ingrass_route_retries_total",
		"Requests retried on a different backend",
		func() float64 { return float64(rt.retries.Load()) })
}

// backends lists all upstreams, primary first.
func (rt *Router) backends() []*backendState {
	return append([]*backendState{rt.primary}, rt.replicas...)
}

// Start runs one synchronous health pass (so the first request already has
// an honest view) and begins the periodic health loop.
func (rt *Router) Start() {
	rt.healthPass()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		ticker := time.NewTicker(rt.opts.HealthEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				rt.healthPass()
			case <-rt.quit:
				return
			}
		}
	}()
}

// Stop ends the health loop.
func (rt *Router) Stop() {
	rt.once.Do(func() {
		close(rt.quit)
		rt.wg.Wait()
	})
}

// healthzBody is the shape GET /healthz answers with.
type healthzBody struct {
	Status string `json:"status"`
	Role   string `json:"role"`
	Ready  bool   `json:"ready"`
}

func (rt *Router) healthPass() {
	backends := append([]*backendState{rt.primary}, rt.replicas...)
	var wg sync.WaitGroup
	for _, b := range backends {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			client := &http.Client{Timeout: rt.opts.HealthEvery * 2, Transport: rt.opts.Client.Transport}
			resp, err := client.Get(b.url + "/healthz")
			if err != nil {
				b.healthy.Store(false)
				b.ready.Store(false)
				return
			}
			defer resp.Body.Close()
			var hb healthzBody
			if resp.StatusCode != http.StatusOK ||
				json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&hb) != nil ||
				hb.Status != "ok" {
				b.healthy.Store(false)
				b.ready.Store(false)
				return
			}
			b.role.Store(hb.Role)
			b.healthy.Store(true)
			b.ready.Store(hb.Ready)
		}(b)
	}
	wg.Wait()
}

// isWrite classifies mutating requests: everything else (solves,
// resistance queries, exports, stats) is safe to serve from a replica.
func isWrite(r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return false
	}
	switch r.URL.Path {
	case "/edges", "/resparsify":
		return true
	}
	return false
}

// pickReplica returns the next available replica after exclude, or nil.
func (rt *Router) pickReplica(exclude *backendState) *backendState {
	n := len(rt.replicas)
	if n == 0 {
		return nil
	}
	start := rt.next.Add(1)
	for i := 0; i < n; i++ {
		b := rt.replicas[(start+uint64(i))%uint64(n)]
		if b == exclude || !b.available() {
			continue
		}
		return b
	}
	return nil
}

func (rt *Router) eject(b *backendState) {
	b.failures.Add(1)
	b.ejections.Add(1)
	b.ejectedUntil.Store(time.Now().Add(rt.opts.EjectFor).UnixNano())
}

// forward sends the request to backend b and returns the response. body may
// be nil. A nil response with nil error never happens. When root is a live
// span the attempt gets a router_client child span and the chosen backend
// receives the trace via the traceparent header — the backend's own root
// span then parents under this client span, stitching the cross-process
// trace.
func (rt *Router) forward(r *http.Request, b *backendState, body []byte, root trace.Span) (*http.Response, error) {
	b.requests.Add(1)
	u := b.url + r.URL.RequestURI()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	cs := root.StartChild(trace.SpanRouterClient)
	cs.SetAttr(trace.AttrBackend, int64(b.idx))
	if tp := cs.Traceparent(); tp != "" {
		req.Header.Set(trace.TraceparentHeader, tp)
	}
	start := time.Now()
	resp, err := rt.opts.Client.Do(req)
	b.dur.ObserveSince(start)
	if err == nil {
		cs.SetAttr(trace.AttrStatus, int64(resp.StatusCode))
	}
	cs.End()
	return resp, err
}

// copyResponse relays resp to w.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	resp.Body.Close()
}

// retryableStatus marks upstream responses that justify trying another
// backend: the backend itself is refusing (stale replica 503, dead proxy
// hop 502), not the request failing on its merits.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable
}

// routeEndpoint classifies a request path into the closed endpoint
// vocabulary the flight recorder shards by (bounding its cardinality no
// matter what paths clients send).
func routeEndpoint(r *http.Request) string {
	switch r.URL.Path {
	case "/solve":
		return "solve"
	case "/solve/batch":
		return "solve_batch"
	case "/resistance":
		return "resistance"
	case "/resistance/batch":
		return "resistance_batch"
	case "/edges":
		if r.Method == http.MethodDelete {
			return "edges_delete"
		}
		return "edges_add"
	case "/resparsify":
		return "resparsify"
	case "/sparsifier":
		return "sparsifier"
	case "/stats":
		return "stats"
	}
	return "other"
}

// routerStatusWriter captures the final status for trace retention while
// forwarding Flush (the /repl/segments long-poll streams frames).
type routerStatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *routerStatusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *routerStatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		switch r.URL.Path {
		case "/healthz":
			rt.handleHealthz(w, r)
			return
		case "/metrics":
			if reg := rt.opts.Obs; reg != nil {
				w.Header().Set("Content-Type", obs.ExpositionContentType)
				_ = reg.WritePrometheus(w)
				return
			}
		case "/debug/requests":
			if rt.opts.Tracer != nil {
				rt.handleDebugRequests(w, r)
				return
			}
		}
	}

	root := trace.Span{}
	if rt.opts.Tracer != nil {
		remote, _ := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
		root = rt.opts.Tracer.StartRequest(routeEndpoint(r), remote)
	}
	sw := &routerStatusWriter{ResponseWriter: w, status: http.StatusOK}
	rt.route(sw, r, root)
	if rt.opts.Tracer != nil {
		rt.opts.Tracer.Finish(root, sw.status)
	}
}

// route forwards one request: writes to the primary once, reads across
// replicas with one retry on a different backend.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, root trace.Span) {
	// Buffer the body so a failed read attempt can be replayed elsewhere.
	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, rt.opts.MaxBodyBytes+1))
		r.Body.Close()
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "reading request body")
			return
		}
		if int64(len(body)) > rt.opts.MaxBodyBytes {
			writeJSONError(w, http.StatusRequestEntityTooLarge, "request body exceeds router buffer")
			return
		}
	}

	if isWrite(r) {
		// Writes go to the primary, once: retrying a non-idempotent write
		// through a proxy risks double application.
		resp, err := rt.forward(r, rt.primary, body, root)
		if err != nil {
			writeJSONError(w, http.StatusBadGateway, "primary unreachable: "+err.Error())
			return
		}
		copyResponse(w, resp)
		return
	}

	first := rt.pickReplica(nil)
	if first == nil {
		first = rt.primary
	}
	resp, err := rt.forward(r, first, body, root)
	if err == nil && !retryableStatus(resp.StatusCode) {
		copyResponse(w, resp)
		return
	}
	if resp != nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
	if first != rt.primary {
		rt.eject(first)
	}
	rt.retries.Add(1)

	second := rt.pickReplica(first)
	if second == nil && first != rt.primary {
		second = rt.primary
	}
	if second == nil {
		writeJSONError(w, http.StatusBadGateway, "no backend available")
		return
	}
	resp2, err2 := rt.forward(r, second, body, root)
	if err2 != nil {
		if second != rt.primary {
			rt.eject(second)
		}
		writeJSONError(w, http.StatusBadGateway, "all backends failed: "+err2.Error())
		return
	}
	copyResponse(w, resp2)
}

// handleDebugRequests serves the router's flight recorder with each
// trace's backend-side continuation stitched in: for every retained trace
// the router asks each upstream's /debug/requests for that trace ID and
// embeds whatever the backend retained — one request, one stitched
// cross-process trace.
func (rt *Router) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	var id trace.TraceID
	if q := r.URL.Query().Get("trace"); q != "" {
		parsed, ok := trace.ParseTraceID(q)
		if !ok {
			writeJSONError(w, http.StatusBadRequest, "bad trace id")
			return
		}
		id = parsed
	}
	local := rt.opts.Tracer.Debug(id, r.URL.Query().Get("endpoint"))
	out := make([]*trace.TraceSnapshot, 0, len(local))
	backends := rt.backends()
	for _, t := range local {
		// Shallow copy: the stored snapshot is shared with the flight
		// recorder and must not grow a Remote list per read.
		tc := *t
		tc.Remote = nil
		for _, b := range backends {
			if traces := rt.fetchRemoteTrace(r.Context(), b, tc.TraceID); len(traces) > 0 {
				tc.Remote = append(tc.Remote, trace.RemoteTrace{Backend: b.url, Traces: traces})
			}
		}
		out = append(out, &tc)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(trace.DebugRequests{Traces: out})
}

// fetchRemoteTrace asks backend b for its retained portion of trace id.
// Best-effort: any failure returns nil and the stitched view simply omits
// that backend.
func (rt *Router) fetchRemoteTrace(ctx context.Context, b *backendState, id string) []*trace.TraceSnapshot {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/debug/requests?trace="+id, nil)
	if err != nil {
		return nil
	}
	resp, err := rt.opts.Client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var dr trace.DebugRequests
	if json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&dr) != nil {
		return nil
	}
	return dr.Traces
}

// routerBackend is one upstream's entry in the router's /healthz body.
type routerBackend struct {
	URL      string `json:"url"`
	Role     string `json:"role"`
	Healthy  bool   `json:"healthy"`
	Ready    bool   `json:"ready"`
	Ejected  bool   `json:"ejected"`
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Status   string          `json:"status"`
		Role     string          `json:"role"`
		Ready    bool            `json:"ready"`
		Retries  uint64          `json:"retries"`
		Backends []routerBackend `json:"backends"`
	}{Status: "ok", Role: "router", Ready: true, Retries: rt.retries.Load()}
	for _, b := range append([]*backendState{rt.primary}, rt.replicas...) {
		role, _ := b.role.Load().(string)
		out.Backends = append(out.Backends, routerBackend{
			URL:      b.url,
			Role:     role,
			Healthy:  b.healthy.Load(),
			Ready:    b.ready.Load(),
			Ejected:  b.ejected(),
			Requests: b.requests.Load(),
			Failures: b.failures.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
