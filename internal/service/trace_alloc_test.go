package service

import (
	"context"
	"testing"

	"ingrass/internal/obs/trace"
	"ingrass/internal/solver"
)

// TestWarmSolveAllocationFreeTracingOff is the sampling-off property from
// the tracing design: a solve on a context that carries no span must record
// zero spans into an active recorder AND stay allocation-free — the
// untraced path is one context lookup returning the inert zero Span.
func TestWarmSolveAllocationFreeTracingOff(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	rec := trace.NewRecorder(trace.Options{SampleRate: 1, Seed: 3})
	root := rec.StartRequest("solve", trace.Remote{})

	e := newEngine(t, 16, 16, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	rhs := warmRHS(n)
	x := make([]float64, n)
	ctx := context.Background() // deliberately NOT carrying root
	opts := solver.Options{Tol: 1e-8}

	for i := 0; i < 3; i++ {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.0 {
		t.Fatalf("untraced warm SolveInto allocates %.2f objects/op, want ~0", allocs)
	}

	ts := rec.Finish(root, 200)
	if ts == nil {
		t.Fatal("sampled trace not retained")
	}
	if len(ts.Spans) != 1 {
		t.Fatalf("untraced solves leaked %d spans into the trace (want only the root)", len(ts.Spans))
	}
}

// TestWarmSolveAllocationFreeTracingOn is the sampling-ON allocation gate:
// with a live span in the request context, the pooled span recorder must
// add zero allocations to the warm solve path. The traced context is built
// once at request setup (NewContext allocates there, by design); everything
// per-solve — StartChild, SetAttr, End, including the span-buffer overflow
// path once MaxSpans is hit — is atomics only.
func TestWarmSolveAllocationFreeTracingOn(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	rec := trace.NewRecorder(trace.Options{SampleRate: 1, Seed: 3})
	root := rec.StartRequest("solve", trace.Remote{})
	if !root.Tracing() {
		t.Fatal("SampleRate=1 root not tracing")
	}

	e := newEngine(t, 16, 16, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	rhs := warmRHS(n)
	x := make([]float64, n)
	ctx := trace.NewContext(context.Background(), root) // once, at "request setup"
	opts := solver.Options{Tol: 1e-8}

	for i := 0; i < 3; i++ {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.0 {
		t.Fatalf("traced warm SolveInto allocates %.2f objects/op, want ~0", allocs)
	}

	ts := rec.Finish(root, 200)
	if ts == nil {
		t.Fatal("sampled trace not retained")
	}
	// The solves above must actually have recorded solve spans (the gate is
	// meaningless if the traced path silently no-opped).
	var outer, applies int
	for _, s := range ts.Spans {
		switch s.Name {
		case "solve_outer":
			outer++
		case "precond_apply":
			applies++
		}
	}
	if outer == 0 || applies == 0 {
		t.Fatalf("traced solves recorded %d outer / %d precond_apply spans, want both > 0", outer, applies)
	}
}
