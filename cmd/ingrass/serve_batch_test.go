package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestResistanceValidation pins the structured 400s of GET /resistance:
// missing, non-integer, out-of-range, and equal endpoints each name the
// offending field and a machine-matchable reason.
func TestResistanceValidation(t *testing.T) {
	svc := testService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	cases := []struct {
		name   string
		query  string
		field  string
		reason string
	}{
		{"missing u", "/resistance?v=3", "u", reasonMissing},
		{"missing v", "/resistance?u=3", "v", reasonMissing},
		{"missing both", "/resistance", "u", reasonMissing},
		{"non-integer u", "/resistance?u=abc&v=3", "u", reasonNotAnInteger},
		{"float v", "/resistance?u=3&v=1.5", "v", reasonNotAnInteger},
		{"negative u", "/resistance?u=-1&v=3", "u", reasonOutOfRange},
		{"v beyond n", "/resistance?u=3&v=36", "v", reasonOutOfRange},
		{"u == v", "/resistance?u=7&v=7", "v", reasonEqualEndpoints},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fe fieldError
			resp := doJSON(t, srv, http.MethodGet, tc.query, nil, &fe)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if fe.Field != tc.field || fe.Reason != tc.reason || fe.Error == "" {
				t.Fatalf("field error %+v, want field=%q reason=%q", fe, tc.field, tc.reason)
			}
		})
	}

	// A valid query still works after all those rejections.
	var okBody struct {
		Resistance float64 `json:"resistance"`
	}
	if resp := doJSON(t, srv, http.MethodGet, "/resistance?u=0&v=35", nil, &okBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid query: %d", resp.StatusCode)
	}
	if okBody.Resistance <= 0 {
		t.Fatalf("resistance %g, want > 0", okBody.Resistance)
	}
}

// TestSolveBatchEndpoint: POST /solve/batch answers every right-hand side
// identically to individual POST /solve calls, under one generation.
func TestSolveBatchEndpoint(t *testing.T) {
	svc := testService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	const n, k = 36, 5
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = math.Sin(float64(i*(j+1) + j))
		}
	}
	var br batchSolveResponse
	resp := doJSON(t, srv, http.MethodPost, "/solve/batch", batchSolveRequest{Bs: bs, Tol: 1e-8}, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /solve/batch: %d", resp.StatusCode)
	}
	if len(br.Results) != k {
		t.Fatalf("%d results, want %d", len(br.Results), k)
	}
	for j, item := range br.Results {
		if item.Error != "" || !item.Stats.Converged || len(item.X) != n {
			t.Fatalf("result %d: %+v", j, item.Stats)
		}
		if item.Stats.Generation != br.Generation {
			t.Fatalf("result %d generation %d != batch generation %d", j, item.Stats.Generation, br.Generation)
		}
		var sr solveResponse
		if resp := doJSON(t, srv, http.MethodPost, "/solve", solveRequest{B: bs[j], Tol: 1e-8}, &sr); resp.StatusCode != http.StatusOK {
			t.Fatalf("single solve %d: %d", j, resp.StatusCode)
		}
		for i := range sr.X {
			if math.Abs(sr.X[i]-item.X[i]) > 1e-12 {
				t.Fatalf("result %d deviates from single solve at %d", j, i)
			}
		}
	}

	// Empty batch is a structured 400.
	var fe fieldError
	if resp := doJSON(t, srv, http.MethodPost, "/solve/batch", batchSolveRequest{}, &fe); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
	if fe.Field != "bs" || fe.Reason != reasonMissing {
		t.Fatalf("empty batch error %+v", fe)
	}
}

// TestResistanceBatchEndpoint: POST /resistance/batch mixes valid,
// degenerate, and invalid pairs with per-item outcomes.
func TestResistanceBatchEndpoint(t *testing.T) {
	svc := testService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	req := batchResistanceRequest{Pairs: []edgeJSON{
		{U: 0, V: 35}, {U: 1, V: 2}, {U: 4, V: 4}, {U: 0, V: 99}, {U: 35, V: 0},
	}}
	var br batchResistanceResponse
	resp := doJSON(t, srv, http.MethodPost, "/resistance/batch", req, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /resistance/batch: %d", resp.StatusCode)
	}
	if len(br.Results) != 5 {
		t.Fatalf("%d results, want 5", len(br.Results))
	}
	if br.Results[0].Error != "" || br.Results[0].Resistance <= 0 {
		t.Fatalf("pair 0: %+v", br.Results[0])
	}
	if br.Results[2].Error != "" || br.Results[2].Resistance != 0 {
		t.Fatalf("u==v pair: %+v", br.Results[2])
	}
	if br.Results[3].Error == "" {
		t.Fatalf("out-of-range pair succeeded: %+v", br.Results[3])
	}
	if math.Abs(br.Results[0].Resistance-br.Results[4].Resistance) > 1e-9 {
		t.Fatalf("resistance not symmetric: %g vs %g", br.Results[0].Resistance, br.Results[4].Resistance)
	}

	// Cross-check one pair against the single endpoint.
	var single struct {
		Resistance float64 `json:"resistance"`
	}
	if resp := doJSON(t, srv, http.MethodGet, "/resistance?u=1&v=2", nil, &single); resp.StatusCode != http.StatusOK {
		t.Fatalf("single resistance: %d", resp.StatusCode)
	}
	if math.Abs(single.Resistance-br.Results[1].Resistance) > 1e-9 {
		t.Fatalf("batch %g vs single %g", br.Results[1].Resistance, single.Resistance)
	}
}
