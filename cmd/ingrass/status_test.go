package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"ingrass"
)

func TestSolveStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"no convergence", fmt.Errorf("outer: %w", ingrass.ErrNoConvergence), http.StatusUnprocessableEntity},
		{"deadline", fmt.Errorf("%w: %w", ingrass.ErrCancelled, context.DeadlineExceeded), http.StatusRequestTimeout},
		{"client cancel", fmt.Errorf("%w: %w", ingrass.ErrCancelled, context.Canceled), statusClientClosedRequest},
		{"other solver failure", fmt.Errorf("breakdown"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if got := solveStatus(c.err); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
}

// TestHTTPSolveOptionsReachSolver drives the unified options end to end: a
// one-iteration budget with an unreachable tolerance must come back as 422
// with the non-convergence error, proving tol/max_iter flow from the
// request body to the innermost CG loop.
func TestHTTPSolveOptionsReachSolver(t *testing.T) {
	svc := testService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	b := make([]float64, 36)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	var e errorResponse
	r := doJSON(t, srv, http.MethodPost, "/solve", solveRequest{B: b, Tol: 1e-15, MaxIter: 1}, &e)
	if r.StatusCode != http.StatusUnprocessableEntity || e.Error == "" {
		t.Fatalf("starved solve: %d %+v", r.StatusCode, e)
	}
}

// TestHTTPSolveIgnoresRetiredInnerFields: inner_tol/inner_iters tuned an
// inner solve the preconditioner no longer runs. Older clients still send
// them; the decoder ignores unknown fields, so such a request gets the
// same answer as one without them.
func TestHTTPSolveIgnoresRetiredInnerFields(t *testing.T) {
	svc := testService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	b := make([]float64, 36)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	var plain, old solveResponse
	if r := doJSON(t, srv, http.MethodPost, "/solve", map[string]any{"b": b}, &plain); r.StatusCode != http.StatusOK {
		t.Fatalf("plain solve: status %d", r.StatusCode)
	}
	r := doJSON(t, srv, http.MethodPost, "/solve", map[string]any{"b": b, "inner_tol": 0.5, "inner_iters": 1}, &old)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("solve with retired fields: status %d", r.StatusCode)
	}
	if old.Stats.Iterations != plain.Stats.Iterations {
		t.Fatalf("retired fields changed the solve: %d vs %d iterations", old.Stats.Iterations, plain.Stats.Iterations)
	}
	for i := range plain.X {
		if math.Float64bits(old.X[i]) != math.Float64bits(plain.X[i]) {
			t.Fatalf("retired fields changed x[%d]: %g vs %g", i, old.X[i], plain.X[i])
		}
	}
}
