package trace

import (
	"context"
	"strings"
	"testing"
	"time"
)

func newTestRecorder(opts Options) *Recorder {
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	return NewRecorder(opts)
}

// TestTraceparentRoundTrip pins the propagation header: a live span renders
// a version-00 traceparent that parses back to the same trace ID, the
// span's own ID as parent, and the retention flag.
func TestTraceparentRoundTrip(t *testing.T) {
	r := newTestRecorder(Options{SampleRate: 1})
	root := r.StartRequest("solve", Remote{})
	if !root.Tracing() {
		t.Fatal("root span not tracing")
	}
	child := root.StartChild(SpanRouterClient)
	hdr := child.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("traceparent %q not version-00/55-char", hdr)
	}
	remote, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("own traceparent %q does not parse", hdr)
	}
	if remote.ID != root.TraceID() {
		t.Fatalf("trace ID mismatch: %v vs %v", remote.ID, root.TraceID())
	}
	if remote.SpanID != child.ID() {
		t.Fatalf("parent span ID %x, want child's %x", remote.SpanID, child.ID())
	}
	if !remote.Forced {
		t.Fatal("SampleRate=1 trace must propagate the retention flag")
	}
	child.End()
	r.Finish(root, 200)

	for _, bad := range []string{
		"",
		"00-000000000000000000000000000000ab-00f067aa0ba902b7-0",  // short
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-4bf92f3577b34da6a3ce929d0e0g4736-00f067aa0ba902b7-01", // bad hex
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("malformed traceparent %q accepted", bad)
		}
	}
}

// TestContinuedTraceKeepsID: a request continuing a remote traceparent
// keeps the upstream trace ID and snapshots the root with the upstream
// span as parent — the linkage a stitched cross-process trace relies on.
func TestContinuedTraceKeepsID(t *testing.T) {
	up := newTestRecorder(Options{SampleRate: 1})
	upRoot := up.StartRequest("solve", Remote{})
	client := upRoot.StartChild(SpanRouterClient)
	remote, ok := ParseTraceparent(client.Traceparent())
	if !ok {
		t.Fatal("traceparent did not parse")
	}

	down := newTestRecorder(Options{SampleRate: -1, Seed: 7}) // negative = head sampling off
	downRoot := down.StartRequest("solve", remote)
	if downRoot.TraceID() != upRoot.TraceID() {
		t.Fatal("continued trace changed ID")
	}
	snap := down.Finish(downRoot, 200)
	if snap == nil {
		t.Fatal("propagated trace must be retained downstream")
	}
	if snap.Reason != ReasonPropagated {
		t.Fatalf("reason %q, want %q", snap.Reason, ReasonPropagated)
	}
	if snap.Spans[0].Parent != formatSpanID(remote.SpanID) {
		t.Fatalf("root parent %s, want upstream client span %s",
			snap.Spans[0].Parent, formatSpanID(remote.SpanID))
	}
	// Distinct processes sharing a trace ID must still mint distinct span
	// IDs (the per-incarnation seed).
	if snap.Spans[0].ID == formatSpanID(upRoot.ID()) {
		t.Fatal("downstream root span ID collides with upstream root")
	}
}

// TestRetentionPolicy walks the reason ladder: errors always retain,
// head-sampled traces retain as "sampled", slow traces retain as "slow",
// and a fast clean request is discarded once the K-slowest list is full of
// slower ones.
func TestRetentionPolicy(t *testing.T) {
	r := newTestRecorder(Options{
		SampleRate:    -1, // head sampling off (0 would default to 0.01)
		SlowThreshold: time.Hour,
		KeepSlow:      1,
	})

	// First request on an endpoint always qualifies (list not yet full).
	root := r.StartRequest("solve", Remote{})
	time.Sleep(2 * time.Millisecond)
	snap := r.Finish(root, 200)
	if snap == nil || snap.Reason != ReasonSlow {
		t.Fatalf("first request: snap=%v, want slow retention", snap)
	}
	bar := snap.DurationNanos

	// A faster clean request must now be discarded.
	root = r.StartRequest("solve", Remote{})
	if snap := r.Finish(root, 200); snap != nil && snap.DurationNanos < bar {
		t.Fatalf("fast request retained: %+v", snap)
	}

	// Errors retain regardless.
	root = r.StartRequest("solve", Remote{})
	snap = r.Finish(root, 422)
	if snap == nil || snap.Reason != ReasonError {
		t.Fatalf("error request: snap=%+v, want error retention", snap)
	}
	if snap.Status != 422 {
		t.Fatalf("status %d, want 422", snap.Status)
	}

	// Head sampling retains with reason "sampled".
	rs := newTestRecorder(Options{SampleRate: 1, SlowThreshold: time.Hour})
	root = rs.StartRequest("solve", Remote{})
	snap = rs.Finish(root, 200)
	if snap == nil || snap.Reason != ReasonSampled {
		t.Fatalf("sampled request: snap=%+v, want sampled retention", snap)
	}

	// Debug view serves what was retained.
	if got := len(r.Debug(TraceID{}, "solve")); got < 2 {
		t.Fatalf("Debug returned %d traces, want >= 2", got)
	}
	if got := len(r.Debug(TraceID{}, "nope")); got != 0 {
		t.Fatalf("Debug for unknown endpoint returned %d traces", got)
	}
}

// TestSpanBufferOverflow: the fixed span buffer drops (and counts) spans
// past MaxSpans instead of allocating or corrupting.
func TestSpanBufferOverflow(t *testing.T) {
	r := newTestRecorder(Options{SampleRate: 1})
	root := r.StartRequest("solve", Remote{})
	for i := 0; i < MaxSpans+10; i++ {
		s := root.StartChild(SpanPrecondApply)
		s.End()
	}
	snap := r.Finish(root, 200)
	if snap == nil {
		t.Fatal("sampled trace not retained")
	}
	if snap.DroppedSpans != 11 { // 10 over + the root slot already used
		t.Fatalf("dropped %d spans, want 11", snap.DroppedSpans)
	}
	if len(snap.Spans) != MaxSpans {
		t.Fatalf("snapshot has %d spans, want %d", len(snap.Spans), MaxSpans)
	}
}

// TestStaleHandleNeutralized: a Span handle held past Finish must not
// write into the recycled buffer's next incarnation.
func TestStaleHandleNeutralized(t *testing.T) {
	r := newTestRecorder(Options{SampleRate: 1})
	root := r.StartRequest("solve", Remote{})
	stale := root.StartChild(SpanSolveOuter)
	r.Finish(root, 200)

	// The pool will hand the same Trace back; the epoch bump must make the
	// stale handle inert.
	root2 := r.StartRequest("edges_add", Remote{})
	stale.SetAttr(AttrIterations, 999)
	stale.End()
	if stale.ID() != 0 {
		t.Fatal("stale handle still reports a span ID")
	}
	snap := r.Finish(root2, 200)
	if snap == nil {
		t.Fatal("second trace not retained")
	}
	for _, s := range snap.Spans {
		if s.Attrs["iterations"] == 999 {
			t.Fatal("stale handle wrote into the recycled trace")
		}
	}
}

// TestZeroSpanInert: the zero Span (untraced path) must no-op every method.
func TestZeroSpanInert(t *testing.T) {
	var s Span
	if s.Tracing() {
		t.Fatal("zero span claims to be tracing")
	}
	c := s.StartChild(SpanSolveOuter)
	c.SetAttr(AttrIterations, 3)
	c.End()
	if c.Tracing() || c.ID() != 0 || s.Traceparent() != "" {
		t.Fatal("zero span chain not inert")
	}
	if got := FromContext(context.Background()); got.Tracing() {
		t.Fatal("FromContext on bare context returned a live span")
	}
}

// TestSpanOpsAllocationFree is the pooled-span allocation gate: with
// tracing ON, starting, annotating, and ending spans allocates nothing —
// the only allocations in the pipeline are request setup (NewContext) and
// retention (snapshot).
func TestSpanOpsAllocationFree(t *testing.T) {
	r := newTestRecorder(Options{SampleRate: 1})
	root := r.StartRequest("solve", Remote{})
	defer r.Finish(root, 200)
	ctx := NewContext(context.Background(), root)

	if allocs := testing.AllocsPerRun(1000, func() {
		s := FromContext(ctx)
		c := s.StartChild(SpanPrecondApply) // overflows quickly; both paths alloc-free
		c.SetAttr(AttrIterations, 7)
		c.End()
	}); allocs != 0 {
		t.Fatalf("span hot path allocates %v/op, want 0", allocs)
	}
}

// TestAttrOverwriteAndCap: same-key SetAttr overwrites, and at most
// maxAttrs distinct keys stick.
func TestAttrOverwriteAndCap(t *testing.T) {
	r := newTestRecorder(Options{SampleRate: 1})
	root := r.StartRequest("solve", Remote{})
	root.SetAttr(AttrIterations, 1)
	root.SetAttr(AttrIterations, 2)
	root.SetAttr(AttrWidth, 3)
	root.SetAttr(AttrPrecondApplies, 4)
	root.SetAttr(AttrGeneration, 5)
	root.SetAttr(AttrBytes, 6) // 5th distinct key (after status lands at Finish: 4 slots)
	snap := r.Finish(root, 200)
	if snap == nil {
		t.Fatal("trace not retained")
	}
	attrs := snap.Spans[0].Attrs
	if attrs["iterations"] != 2 {
		t.Fatalf("iterations = %d, want overwrite to 2", attrs["iterations"])
	}
	if len(attrs) > maxAttrs {
		t.Fatalf("%d attrs stuck, cap is %d", len(attrs), maxAttrs)
	}
}
