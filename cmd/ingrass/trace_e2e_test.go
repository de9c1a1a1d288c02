package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ingrass/internal/obs"
	"ingrass/internal/obs/trace"
	"ingrass/internal/repl"
)

// tracedBackend is one serve-mux instance with an always-sample recorder,
// standing in for a primary or follower process.
type tracedBackend struct {
	tracer *trace.Recorder
	srv    *httptest.Server
}

func newTracedBackend(t *testing.T) *tracedBackend {
	t.Helper()
	svc := testService(t)
	tracer := trace.NewRecorder(trace.Options{SampleRate: 1})
	tracer.RegisterMetrics(svc.Metrics())
	srv := httptest.NewServer(newServeMux(svc, tracer))
	t.Cleanup(srv.Close)
	return &tracedBackend{tracer: tracer, srv: srv}
}

// spanNames collects the set of span names in a snapshot.
func spanNames(ts *trace.TraceSnapshot) map[string]int {
	out := make(map[string]int)
	for _, s := range ts.Spans {
		out[s.Name]++
	}
	return out
}

func findSpan(ts *trace.TraceSnapshot, name string) *trace.SpanSnapshot {
	for i := range ts.Spans {
		if ts.Spans[i].Name == name {
			return &ts.Spans[i]
		}
	}
	return nil
}

// TestTracePropagationThroughRouter is the cross-process acceptance check:
// one POST /solve through the router to a replica produces ONE trace whose
// router-side portion (http_request root + router_client child) and
// backend-side portion (http_request -> solve_outer -> precond_apply) share the trace ID and link parent-to-child across the
// process boundary, retrievable stitched from the router's /debug/requests.
// A POST /edges exercises the same round-trip toward the primary.
func TestTracePropagationThroughRouter(t *testing.T) {
	primary := newTracedBackend(t)
	follower := newTracedBackend(t)

	reg := obs.NewRegistry()
	routerTracer := trace.NewRecorder(trace.Options{SampleRate: 1})
	routerTracer.RegisterMetrics(reg)
	rt := repl.NewRouter(repl.RouterOptions{
		Primary:     primary.srv.URL,
		Replicas:    []string{follower.srv.URL},
		HealthEvery: 25 * time.Millisecond,
		Obs:         reg,
		Tracer:      routerTracer,
	})
	rt.Start()
	t.Cleanup(rt.Stop)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// A read routes to the replica; a write routes to the primary.
	rhs := make([]float64, 36)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i))
	}
	body, _ := json.Marshal(map[string]any{"b": rhs})
	resp, err := http.Post(front.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /solve via router: %d", resp.StatusCode)
	}
	wbody, _ := json.Marshal(map[string]any{"edges": []map[string]any{{"u": 0, "v": 35, "w": 2.0}}})
	resp, err = http.Post(front.URL+"/edges", "application/json", bytes.NewReader(wbody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /edges via router: %d", resp.StatusCode)
	}

	// The router's stitched flight recorder is the single retrieval point.
	var dr trace.DebugRequests
	dresp, err := http.Get(front.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if err := json.NewDecoder(dresp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}

	checkStitched := func(endpoint, backendURL string, wantBackendSpans []string) *trace.TraceSnapshot {
		t.Helper()
		var ts *trace.TraceSnapshot
		for _, cand := range dr.Traces {
			if cand.Endpoint == endpoint {
				ts = cand
				break
			}
		}
		if ts == nil {
			t.Fatalf("router retained no %q trace: %d traces total", endpoint, len(dr.Traces))
		}
		root := findSpan(ts, "http_request")
		client := findSpan(ts, "router_client")
		if root == nil || client == nil {
			t.Fatalf("%s: router spans %v, want http_request + router_client", endpoint, spanNames(ts))
		}
		if client.Parent != root.ID {
			t.Fatalf("%s: router_client parent %s, want root %s", endpoint, client.Parent, root.ID)
		}

		var rem *trace.RemoteTrace
		for i := range ts.Remote {
			if ts.Remote[i].Backend == backendURL {
				rem = &ts.Remote[i]
			}
		}
		if rem == nil || len(rem.Traces) == 0 {
			t.Fatalf("%s: no stitched continuation from %s (remotes: %d)", endpoint, backendURL, len(ts.Remote))
		}
		bt := rem.Traces[0]
		if bt.TraceID != ts.TraceID {
			t.Fatalf("%s: backend trace ID %s != router trace ID %s", endpoint, bt.TraceID, ts.TraceID)
		}
		broot := findSpan(bt, "http_request")
		if broot == nil {
			t.Fatalf("%s: backend trace has no http_request root: %v", endpoint, spanNames(bt))
		}
		// The cross-process link: the backend's root parents under the
		// router's client span.
		if broot.Parent != client.ID {
			t.Fatalf("%s: backend root parent %s, want router_client %s", endpoint, broot.Parent, client.ID)
		}
		if broot.ID == root.ID || broot.ID == client.ID {
			t.Fatalf("%s: backend span ID %s collides with a router span", endpoint, broot.ID)
		}
		names := spanNames(bt)
		for _, want := range wantBackendSpans {
			if names[want] == 0 {
				t.Fatalf("%s: backend trace missing %q span (has %v)", endpoint, want, names)
			}
		}
		return ts
	}

	solveTrace := checkStitched("solve", follower.srv.URL,
		[]string{"http_request", "solve_outer", "precond_apply"})
	// The write round-trip: wal spans need a durable engine
	// (covered by the CI trace smoke); here the linkage itself is the check.
	checkStitched("edges_add", primary.srv.URL, []string{"http_request"})

	// The waterfall renderer draws the stitched trace: all three layers on
	// one timeline, backend rows tagged with their process.
	var buf bytes.Buffer
	renderTrace(&buf, solveTrace, 48)
	out := buf.String()
	for _, want := range []string{"trace " + solveTrace.TraceID, "router_client", "solve_outer", "@" + follower.srv.URL} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
}

// TestTraceHeaderRoundTripDirect drives a backend directly with a synthetic
// traceparent and checks the inject/extract round trip without the router:
// the backend adopts the trace ID, parents under the given span, retains it
// (flag bit set), and serves it back by ID from /debug/requests.
func TestTraceHeaderRoundTripDirect(t *testing.T) {
	b := newTracedBackend(t)
	const parentHdr = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

	rhs := make([]float64, 36)
	for i := range rhs {
		rhs[i] = math.Cos(float64(i))
	}
	body, _ := json.Marshal(map[string]any{"b": rhs})
	req, _ := http.NewRequest(http.MethodPost, b.srv.URL+"/solve", bytes.NewReader(body))
	req.Header.Set(trace.TraceparentHeader, parentHdr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /solve: %d", resp.StatusCode)
	}

	dresp, err := http.Get(b.srv.URL + "/debug/requests?trace=4bf92f3577b34da6a3ce929d0e0e4736")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var dr trace.DebugRequests
	if err := json.NewDecoder(dresp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Traces) != 1 {
		t.Fatalf("debug/requests?trace= returned %d traces, want 1", len(dr.Traces))
	}
	ts := dr.Traces[0]
	if ts.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID %s", ts.TraceID)
	}
	root := findSpan(ts, "http_request")
	if root == nil || root.Parent != "00f067aa0ba902b7" {
		t.Fatalf("root span %+v, want parent 00f067aa0ba902b7", root)
	}
}
