package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ingrass"
	"ingrass/internal/graph"
)

// residualTol bounds the relative residual ||L_G x - b|| / ||b|| the
// benchmark recomputes for every solve. The service solves to 1e-8; the
// margin absorbs rounding between its operators and the benchmark's.
const residualTol = 1e-6

// serveOptions are the defaults of `ingrass serve`: coalescing of single
// solves on, default solve options and, with a data directory, fsync after
// every logged batch.
func serveOptions(dataDir string) ingrass.ServiceOptions {
	return ingrass.ServiceOptions{
		Options:       ingrass.Options{InitialDensity: initialDensity, Seed: programSeed},
		MaxBatch:      128,
		FlushInterval: 2 * time.Millisecond,
		Solve:         ingrass.SolveOptions{Format: "auto"},
		Batch:         ingrass.BatchOptions{Window: 200 * time.Microsecond, MaxBlock: 8, CoalesceSingles: true},
		DataDir:       dataDir,
		Fsync:         ingrass.FsyncAlways,
		FsyncEvery:    100 * time.Millisecond,
		SegmentBytes:  64 << 20,
	}
}

// solveRead: two closed-loop clients call Service.Solve on one cached
// factorization, starting each round together; there are no writes. Service.Solve is the call `ingrass
// serve` makes for POST /solve, and unlike Service.SolveInto it goes through
// the coalescing scheduler, so concurrent solves can share a blocked run.
func solveRead(cfg config) (*result, error) { return solveWorkload(cfg, false) }

// solveWrite: the service is durable; one closed-loop solve client runs
// beside one open-loop writer whose every AddEdges publishes a generation.
func solveWrite(cfg config) (*result, error) { return solveWorkload(cfg, true) }

func solveWorkload(cfg config, write bool) (*result, error) {
	const graphCase = "g2_circuit"
	name, clients := "solve_read", 2
	if write {
		name, clients = "solve_write", 1
	}
	r := newResult()
	g0, err := buildCase(graphCase, cfg.size.solveScale)
	if err != nil {
		return nil, err
	}
	n, e0 := g0.NumNodes(), g0.NumEdges()
	base := g0.Edges()

	// The writer sends a fixed number of equal batches from the dataset's
	// stream; together they are the paper's 24% of |E_G|. G at generation k
	// is the generated graph plus the first offsets[k] streamed edges.
	var (
		batches [][]graph.Edge
		writes  [][]ingrass.Edge
		flat    []graph.Edge
		offsets = []int{0}
	)
	if write {
		nw := max(1, int(cfg.size.writeRate*cfg.seconds.Seconds()))
		per := max(1, int(math.Round((finalDensity-initialDensity)*float64(e0)/float64(nw))))
		batches, err = localStream(g0, nw*per, nw)
		if err != nil {
			return nil, err
		}
		for _, b := range batches {
			writes = append(writes, publicEdges(b))
			flat = append(flat, b...)
			offsets = append(offsets, len(flat))
		}
	}

	// Set-up: from the generated graph in memory to a service that can
	// serve, repeated because one construction does not time repeatably.
	var (
		svc    *ingrass.Service
		setups []float64
		opts   ingrass.ServiceOptions
	)
	for range cfg.size.serviceReps {
		if svc != nil {
			svc.Close()
		}
		pg := toPublic(g0)
		opts = serveOptions("")
		if write {
			if opts.DataDir, err = os.MkdirTemp(cfg.dir, "data-"); err != nil {
				return nil, err
			}
		}
		runtime.GC() // as on paper_update: no leftover collection in the timed set-up
		t := time.Now()
		if svc, err = ingrass.NewService(pg, opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer svc.Close()
	eh0 := svc.Stats().SparsifierEdges

	rng := rand.New(rand.NewPCG(cfg.seed, 0xb5))
	rhs := make([][]float64, 16)
	for i := range rhs {
		rhs[i] = make([]float64, n)
		for j := range rhs[i] {
			rhs[i][j] = rng.NormFloat64()
		}
	}
	ctx := context.Background()
	// The first solve builds generation 0's factorization; on solve_read
	// later solves reuse it.
	if _, _, err := svc.Solve(ctx, rhs[0], ingrass.SolveOptions{}); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}

	// One solve of rhs[i] by one client, checked against G at the generation
	// that served it.
	type client struct {
		r           *result
		res         []float64 // residual scratch
		lat         []float64 // ms
		iters, uses int
		worst       float64
	}
	solve := func(cl *client, i int) {
		b := rhs[i%len(rhs)]
		t := time.Now()
		x, st, err := svc.Solve(ctx, b, ingrass.SolveOptions{})
		cl.lat = append(cl.lat, float64(time.Since(t).Nanoseconds())/1e6)
		cl.iters += st.Iterations
		cl.uses += st.PrecondUses
		rel := math.Inf(1)
		if x != nil && st.Generation < uint64(len(offsets)) {
			rel = residual(cl.res, x, b, base, flat[:offsets[st.Generation]])
		}
		cl.worst = max(cl.worst, rel)
		cl.r.op(err == nil && st.Converged && rel <= residualTol,
			"solve %d at generation %d: converged %v, residual %.3g, err %v", i, st.Generation, st.Converged, rel, err)
	}
	cs := make([]client, clients)
	for c := range cs {
		cs[c] = client{r: newResult(), res: make([]float64, n)}
	}

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	runtime.GC()
	gc := readGC()
	start := time.Now()
	if write {
		// The solve client runs beside the writer until the last write lands.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				solve(&cs[0], i)
			}
		}()
	} else {
		// The two clients start each round together, as a caller fanning out
		// two solves and waiting for both. Left to drift apart, they fall in
		// and out of step: in step every pair coalesces, out of step none
		// does, and how long a run spends in each state moved the median
		// solve time between 94 and 138 ms over runs of one seed.
		for round := 0; time.Since(start) < cfg.seconds; round++ {
			for c := range cs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					solve(&cs[c], round*clients+c)
				}()
			}
			wg.Wait()
		}
	}

	var (
		wlat    []float64 // ms, from when each write was due
		late    time.Duration
		decided [3]int
	)
	if write {
		interval := time.Duration(float64(time.Second) / cfg.size.writeRate)
		for k, batch := range writes {
			due := start.Add(time.Duration(k) * interval)
			time.Sleep(time.Until(due))
			late = max(late, time.Since(due))
			res, err := svc.AddEdges(ctx, batch)
			wlat = append(wlat, float64(time.Since(due).Nanoseconds())/1e6)
			decided[0] += res.Included
			decided[1] += res.Merged
			decided[2] += res.Redistributed
			r.op(err == nil && res.Generation == uint64(k+1) && res.Included+res.Merged+res.Redistributed == len(batch),
				"write %d: generation %d, %d+%d+%d decisions for %d edges, err %v",
				k, res.Generation, res.Included, res.Merged, res.Redistributed, len(batch), err)
		}
		stop.Store(true)
	}
	wg.Wait()
	measured := time.Since(start)
	r.e2e["heap_live_mb"] = liveHeapMB()
	r.recordGC(gc)

	var lat []float64
	var iters, uses int
	var worst float64
	for _, cl := range cs {
		r.attempted += cl.r.attempted
		r.failed += cl.r.failed
		r.report = append(r.report, cl.r.report...)
		lat = append(lat, cl.lat...)
		iters += cl.iters
		uses += cl.uses
		worst = max(worst, cl.worst)
	}

	// The final state must account for every write sent: G is the generated
	// graph plus every streamed edge in order, each write published one
	// generation, and each was logged once.
	stats := svc.Stats()
	gSnap, _ := svc.OriginalSnapshot()
	hSnap, _ := svc.SparsifierSnapshot()
	gFinal, hFinal := toInternal(gSnap), toInternal(hSnap)
	r.invalidate(sameEdges(gFinal.Edges(), base, batches), r.attempted, "final G is not the generated graph plus the %d written edges", len(flat))
	r.invalidate(stats.Generation == uint64(len(batches)), r.attempted, "generation %d after %d writes", stats.Generation, len(batches))
	if write {
		r.invalidate(stats.WALAppends == uint64(len(batches)), r.attempted, "%d WAL appends for %d writes", stats.WALAppends, len(batches))
	}
	k, err := timeKappa(r, cfg.traced, gFinal, hFinal)
	r.op(err == nil && k > 0, "kappa estimate: %v", err)

	solves := summarize(lat)
	r.e2e["setup_s"] = median(setups)
	r.e2e["op_us_p50"] = solves.p50 * 1e3
	r.e2e["op_us_p90"] = solves.p90 * 1e3
	r.e2e["ops_per_s"] = float64(len(lat)) / measured.Seconds()
	r.e2e["density_final"] = graph.OffTreeDensity(hFinal.NumEdges(), n, gFinal.NumEdges())
	r.e2e["kappa_final"] = k
	r.e2e["ok_frac"] = r.okFrac()
	r.logf("setup_s %.4g s (median of %d service constructions)", r.e2e["setup_s"], len(setups))
	r.logf("solve_ms %v", solves)
	r.logf("solves_per_s %.6g 1/s (%d solves by %d closed-loop clients in %.3g s)", r.e2e["ops_per_s"], len(lat), clients, measured.Seconds())
	r.logf("worst recomputed residual %.3g (limit %g)", worst, residualTol)
	if write {
		writesDist := summarize(wlat)
		r.logf("write_ms %v", writesDist)
		r.logf("writer: %d writes of %d edges at %g/s, latest start %.3g ms behind schedule",
			len(writes), len(writes[0]), cfg.size.writeRate, float64(late.Nanoseconds())/1e6)
		r.layer["service.write_ms_p50"] = writesDist.p50
		r.layer["service.write_ms_p90"] = writesDist.p90
	}

	if cfg.traced {
		if len(lat) > 0 {
			r.layer["sparse.outer_iters"] = float64(iters) / float64(len(lat))
			r.layer["precond.uses_per_solve"] = float64(uses) / float64(len(lat))
		}
		r.layer["batch.avg_block_fill"] = stats.AvgBlockFill
		r.layer["batch.requests_coalesced"] = float64(stats.RequestsCoalesced)
		r.layer["service.precond_builds"] = float64(stats.PrecondBuilds)
		r.layer["service.generations"] = float64(stats.Generation)
		r.layer["service.flushes"] = float64(stats.Flushes)
		r.layer["service.solve_no_convergence"] = float64(stats.SolveNoConvergence)
		r.layer["service.write_errors"] = float64(stats.WriteErrors)
		if write {
			r.layer["core.included"] = float64(decided[0])
			r.layer["core.merged"] = float64(decided[1])
			r.layer["core.redistributed"] = float64(decided[2])
			r.layer["core.include_ratio"] = float64(decided[0]) / float64(len(flat))
			if stats.WALAppends > 0 {
				r.layer["wal.bytes_per_write"] = float64(stats.WALBytes) / float64(stats.WALAppends)
			}
			if err := traceWAL(r, cfg.dir, batches); err != nil {
				return nil, fmt.Errorf("tracing wal: %w", err)
			}
		}
		if err := traceSetupLayers(r, g0, cfg.size.layerReps); err != nil {
			return nil, fmt.Errorf("tracing set-up layers: %w", err)
		}
		if err := traceSolveLayers(r, gFinal, hFinal, runtime.GOMAXPROCS(0), rhs, cfg.size.layerReps); err != nil {
			return nil, fmt.Errorf("tracing solve layers: %w", err)
		}
	}

	r.prov = provenance(cfg, name)
	r.prov["graph"] = map[string]any{"case": graphCase, "scale": cfg.size.solveScale, "n": n,
		"edges_g": e0, "edges_h": eh0, "edges_g_final": gFinal.NumEdges(), "edges_h_final": hFinal.NumEdges()}
	r.prov["service_options"] = opts
	r.prov["clients"] = clients
	if write {
		r.prov["writer"] = map[string]any{"writes": len(writes), "edges_per_write": len(writes[0]), "per_s": cfg.size.writeRate, "loop": "open"}
	}
	r.prov["measured_s"] = measured.Seconds()
	return r, nil
}

// residual returns ||b' - L x|| / ||b'||, where b' is b less its mean (the
// part of b a Laplacian can reach) and L is the Laplacian of the union of
// the edge lists, applied edge by edge rather than through any of the
// program's operators. res is scratch of length len(x).
func residual(res, x, b []float64, edgeLists ...[]graph.Edge) float64 {
	var mean float64
	for _, v := range b {
		mean += v
	}
	mean /= float64(len(b))
	for i, v := range b {
		res[i] = v - mean
	}
	var norm float64
	for _, v := range res {
		norm += v * v
	}
	for _, es := range edgeLists {
		for _, e := range es {
			f := e.W * (x[e.U] - x[e.V])
			res[e.U] -= f
			res[e.V] += f
		}
	}
	var rn float64
	for _, v := range res {
		rn += v * v
	}
	return math.Sqrt(rn / norm)
}

// sameEdges reports whether got is base followed by every batch, each batch
// in any order (an update appends a batch in descending distortion order).
func sameEdges(got, base []graph.Edge, batches [][]graph.Edge) bool {
	if len(got) < len(base) || !slices.Equal(got[:len(base)], base) {
		return false
	}
	got = got[len(base):]
	for _, b := range batches {
		if len(got) < len(b) {
			return false
		}
		seg, want := slices.Clone(got[:len(b)]), slices.Clone(b)
		slices.SortFunc(seg, cmpEdge)
		slices.SortFunc(want, cmpEdge)
		if !slices.Equal(seg, want) {
			return false
		}
		got = got[len(b):]
	}
	return len(got) == 0
}

func cmpEdge(a, b graph.Edge) int {
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.W, b.W))
}
