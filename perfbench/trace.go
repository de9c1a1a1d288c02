package main

import (
	"context"
	"errors"
	"os"
	"time"

	"ingrass/internal/graph"
	"ingrass/internal/precond"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
	"ingrass/internal/wal"
)

// applies is how many operator applications one SpMV timing sample spans,
// so a sample is long against the clock's resolution.
const applies = 200

// traceSolveLayers times the read path's modules on the served graphs g and
// h, with the service's solve options (auto format, workers parallelism):
// precond.Factorize, one preconditioner application, SpMV on G and H, the
// share of a whole solve spent in G products, and the SpMV speed-up over a
// single worker.
func traceSolveLayers(r *result, g, h *graph.Graph, workers int, rhs [][]float64, reps int) error {
	opts := solver.Options{Workers: workers, Format: solver.FormatAuto}
	var fact *precond.Factorization
	var err error
	t, err := medianTime(reps, func() error {
		fact, err = precond.Factorize(h, opts)
		return err
	})
	if err != nil {
		return err
	}
	r.layer["precond.factorize_ms"] = t * 1e3

	// One preconditioner application is a truncated Jacobi-PCG on H, as the
	// flexible outer loop runs it.
	n := g.NumNodes()
	hop := fact.Operator()
	proj := &sparse.ProjectedOperator{Inner: hop}
	inner := fact.Options().Inner()
	ws := solver.NewWorkspace(n)
	b := append([]float64(nil), rhs[0]...)
	vecmath.CenterMean(b)
	x := make([]float64, n)
	ctx := context.Background()
	if t, err = medianTime(reps, func() error {
		mark := ws.Mark()
		defer ws.Release(mark)
		vecmath.Zero(x)
		_, err := sparse.CG(ctx, proj, x, b, hop.Jacobi(), ws, inner)
		if errors.Is(err, solver.ErrNoConvergence) {
			return nil // the inner solve is truncated by design
		}
		return err
	}); err != nil {
		return err
	}
	r.layer["precond.inner_solve_ms"] = t * 1e3

	gop := sparse.NewLapOperator(g)
	gop.SetWorkers(workers)
	gop.SetFormat(opts.Format)
	r.layer["sparse.spmv_g_us"] = spmvUS(gop, reps)
	r.layer["sparse.spmv_h_us"] = spmvUS(hop, reps)
	serial := sparse.NewLapOperator(g)
	serial.SetWorkers(1)
	serial.SetFormat(gop.Format())
	r.layer["kernel.spmv_speedup"] = spmvUS(serial, reps) / r.layer["sparse.spmv_g_us"]

	// Whole solves against a G operator that times its own products.
	timed := &timedOp{LapOperator: gop}
	var wall time.Duration
	for i := range reps {
		t := time.Now()
		if _, err := fact.Solve(ctx, timed, x, rhs[i%len(rhs)], solver.Options{}); err != nil {
			return err
		}
		wall += time.Since(t)
	}
	r.layer["sparse.spmv_g_share"] = timed.busy.Seconds() / wall.Seconds()

	r.layer["graph.snapshot_us"], _ = medianTime(reps, func() error {
		for range applies {
			g.Snapshot()
			h.Snapshot()
		}
		return nil
	})
	r.layer["graph.snapshot_us"] *= 1e6 / applies
	return nil
}

// timedOp is G's operator with a clock around each product. Embedding the
// operator keeps its kernel pool visible to the solver, so the fused vector
// kernels run on the same workers as in the service.
type timedOp struct {
	*sparse.LapOperator
	busy time.Duration
}

func (o *timedOp) Apply(dst, x []float64) {
	t := time.Now()
	o.LapOperator.Apply(dst, x)
	o.busy += time.Since(t)
}

// spmvUS is the median time of one application of op, in microseconds.
func spmvUS(op *sparse.LapOperator, reps int) float64 {
	x := make([]float64, op.Dim())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	dst := make([]float64, op.Dim())
	t, _ := medianTime(reps, func() error {
		for range applies {
			op.Apply(dst, x)
		}
		return nil
	})
	return t * 1e6 / applies
}

// traceWAL appends records shaped like the workload's writes to a scratch
// store with fsync after every record, timing each append and its fsync.
func traceWAL(r *result, dir string, writes [][]graph.Edge) error {
	dir, err := os.MkdirTemp(dir, "wal-")
	if err != nil {
		return err
	}
	st, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer st.Close()
	var appendMS, fsyncMS []float64
	for k, w := range writes {
		t := time.Now()
		_, fsync, err := st.AppendTimed(wal.BatchRecord{Gen: uint64(k + 1), Adds: w})
		if err != nil {
			return err
		}
		appendMS = append(appendMS, float64(time.Since(t).Nanoseconds())/1e6)
		fsyncMS = append(fsyncMS, float64(fsync.Nanoseconds())/1e6)
	}
	r.layer["wal.append_ms_p50"] = median(appendMS)
	r.layer["wal.fsync_ms_p50"] = median(fsyncMS)
	return st.Close()
}
