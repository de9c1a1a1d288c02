package main

import (
	"fmt"
	"runtime"
	"time"

	"ingrass/internal/core"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
)

// paperUpdate is the paper's Table II protocol on the g3_circuit power grid:
// set-up is grass.Sparsify for H(0) at 10% density plus core.NewSparsifier;
// the measured phase applies a local stream raising density from 10% to 34%,
// one UpdateBatch call per edge (the paper's per-incremental-change update).
// Set-up and stream repeat on a fresh copy of G, at least paperReps times and
// as often as fits in the run length, so setup_s is a median. Every repetition
// sees the same inputs and must make the same decisions; kappa is estimated
// once, on the last repetition's graphs.
func paperUpdate(cfg config) (*result, error) {
	const graphCase = "g3_circuit"
	r := newResult()
	g0, err := buildCase(graphCase, cfg.size.paperScale)
	if err != nil {
		return nil, err
	}
	e0 := g0.NumEdges()
	count := int((finalDensity - initialDensity) * float64(e0))
	batches, err := localStream(g0, count, 1)
	if err != nil {
		return nil, err
	}
	stream := batches[0]

	var (
		setups   []float64
		lat      = make([]float64, 0, cfg.size.paperReps*len(stream))
		updating time.Duration
		sp       *core.Sparsifier
		first    core.Stats
		eh0      int // |E_H(0)|
	)
	gc := readGC()
	start := time.Now()
	var last time.Duration // the latest repetition's length
	for rep := 0; rep < cfg.size.paperReps || time.Since(start)+last <= cfg.seconds; rep++ {
		repStart := time.Now()
		g := g0.Clone()
		// Each timed phase starts from a collected heap, so a collection
		// left over from the previous phase does not land in it.
		runtime.GC()
		t := time.Now()
		init, err := grass.Sparsify(g, grassConfig())
		if err != nil {
			return nil, err
		}
		eh0 = init.H.NumEdges()
		sp, err = core.NewSparsifier(g, init.H, coreConfig())
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())

		if cfg.traced && rep == 0 {
			// The embedding does not change during the stream, so every
			// estimate made here is one the update phase makes too.
			t = time.Now()
			for _, e := range stream {
				sp.EstimateDistortion(e)
			}
			r.layer["core.distortion_ns"] = float64(time.Since(t).Nanoseconds()) / float64(len(stream))
		}

		one := make([]graph.Edge, 1)
		runtime.GC()
		t = time.Now()
		for _, e := range stream {
			one[0] = e
			t0 := time.Now()
			decs, err := sp.UpdateBatch(one)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			r.op(err == nil && len(decs) == 1, "UpdateBatch(%v): %d decisions, err %v", e, len(decs), err)
		}
		updating += time.Since(t)

		// Every edge gets exactly one decision, H stays a connected spanning
		// sparsifier, and a repetition decides exactly as the first did.
		st := sp.Stats()
		if rep == 0 {
			first = st
		}
		r.invalidate(st.Included+st.Merged+st.Redistributed == len(stream) && st.Processed == len(stream), len(stream),
			"repetition %d: %d included + %d merged + %d redistributed != %d stream edges", rep, st.Included, st.Merged, st.Redistributed, len(stream))
		r.invalidate(graph.IsConnected(sp.H), len(stream), "repetition %d: H is disconnected", rep)
		r.invalidate(st == first, len(stream), "repetition %d decided %+v, repetition 0 decided %+v", rep, st, first)
		if r.failed > 0 {
			break
		}
		last = time.Since(repStart)
	}
	measured := time.Since(start)
	r.e2e["heap_live_mb"] = liveHeapMB()
	r.recordGC(gc)

	density := graph.OffTreeDensity(sp.H.NumEdges(), sp.H.NumNodes(), sp.G.NumEdges())
	k, err := timeKappa(r, cfg.traced, sp.G, sp.H)
	r.op(err == nil && k > 0, "kappa estimate: %v", err)

	upd := summarize(lat)
	r.e2e["setup_s"] = median(setups)
	r.e2e["op_us_p50"] = upd.p50
	r.e2e["op_us_p90"] = upd.p90
	r.e2e["ops_per_s"] = float64(len(lat)) / updating.Seconds()
	r.e2e["density_final"] = density
	r.e2e["kappa_final"] = k
	r.e2e["ok_frac"] = r.okFrac()
	r.logf("setup_s %.4g s (median of %d set-ups)", r.e2e["setup_s"], len(setups))
	r.logf("update_us %v", upd)
	r.logf("update_edges_per_s %.6g 1/s (%d edges over %.3g s of updates)", r.e2e["ops_per_s"], len(lat), updating.Seconds())
	r.logf("decisions per stream: %d included, %d merged, %d redistributed of %d", first.Included, first.Merged, first.Redistributed, len(stream))

	if cfg.traced {
		r.layer["core.included"] = float64(first.Included)
		r.layer["core.merged"] = float64(first.Merged)
		r.layer["core.redistributed"] = float64(first.Redistributed)
		r.layer["core.include_ratio"] = float64(first.Included) / float64(len(stream))
		if err := traceSetupLayers(r, g0, 1); err != nil {
			return nil, fmt.Errorf("tracing set-up layers: %w", err)
		}
	}

	r.prov = provenance(cfg, "paper_update")
	r.prov["graph"] = map[string]any{"case": graphCase, "scale": cfg.size.paperScale, "n": g0.NumNodes(),
		"edges_g": e0, "edges_h": eh0, "edges_g_final": sp.G.NumEdges(), "edges_h_final": sp.H.NumEdges()}
	r.prov["stream"] = map[string]any{"edges": len(stream), "kind": "local", "hop_radius": 10, "calls": "one UpdateBatch per edge"}
	r.prov["options"] = map[string]any{"initial_density": initialDensity, "final_density": finalDensity, "target_cond": targetCond}
	r.prov["repetitions"] = len(setups)
	r.prov["measured_s"] = measured.Seconds()
	return r, nil
}
