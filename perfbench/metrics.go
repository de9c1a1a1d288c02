package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// spec names one reported metric and its unit. The two tables below are the
// benchmark's contract: BENCHMARK.json lists the same names and units in the
// same order, and the smoke test checks that they agree.
type spec struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports every
// one; "op" is the workload's foreground operation (README.md).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"op_us_p50", "us"},
	{"op_us_p90", "us"},
	{"ops_per_s", "1/s"},
	{"density_final", "fraction"},
	{"kappa_final", "ratio"},
	{"heap_live_mb", "MB"},
	{"ok_frac", "fraction"},
}

// perLayer is what the traced pass measures around the calls into each
// module. A layer that does no work in a workload reads 0 there.
var perLayer = []spec{
	{"grass.sparsify_s", "s"},
	{"tree.lowstretch_s", "s"},
	{"krylov.embed_s", "s"},
	{"lrd.build_s", "s"},
	{"lrd.levels", "count"},
	{"lrd.filter_level", "count"},
	{"sketch.new_s", "s"},
	{"sketch.index_entries", "count"},
	{"core.distortion_ns", "ns"},
	{"core.included", "count"},
	{"core.merged", "count"},
	{"core.redistributed", "count"},
	{"core.include_ratio", "fraction"},
	{"cond.estimate_s", "s"},
	{"precond.factorize_ms", "ms"},
	{"precond.inner_solve_ms", "ms"},
	{"precond.uses_per_solve", "count"},
	{"sparse.outer_iters", "count"},
	{"sparse.spmv_g_us", "us"},
	{"sparse.spmv_h_us", "us"},
	{"sparse.spmv_g_share", "fraction"},
	{"kernel.spmv_speedup", "x"},
	{"batch.avg_block_fill", "count"},
	{"batch.requests_coalesced", "count"},
	{"service.precond_builds", "count"},
	{"service.generations", "count"},
	{"service.flushes", "count"},
	{"service.solve_no_convergence", "count"},
	{"service.write_errors", "count"},
	{"service.write_ms_p50", "ms"},
	{"service.write_ms_p90", "ms"},
	{"wal.append_ms_p50", "ms"},
	{"wal.fsync_ms_p50", "ms"},
	{"wal.bytes_per_write", "B"},
	{"graph.snapshot_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_setup_s", "s"},
	{"trace.overhead_op_us_p50", "us"},
}

// result is what one pass of a workload measured and checked.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	// report holds human-readable lines: the named metrics of the workload
	// with their sample counts, and the outcome of each check.
	report     []string
	prov       map[string]any
	complaints int
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) logf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// op counts one operation and records its failure when ok is false.
func (r *result) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.complain(format, args...)
	}
}

// invalidate marks n operations already counted as failed when a check
// over all of them does not hold.
func (r *result) invalidate(ok bool, n int, format string, args ...any) {
	if !ok {
		r.failed = min(r.attempted, r.failed+n)
		r.complain(format, args...)
	}
}

// complain reports a failed check on standard error and in the report,
// the first few in full.
func (r *result) complain(format string, args ...any) {
	r.complaints++
	if r.complaints <= 5 {
		msg := fmt.Sprintf("CHECK FAILED: "+format, args...)
		fmt.Fprintln(os.Stderr, msg)
		r.report = append(r.report, msg)
	}
}

// okFrac is the share of attempted operations that succeeded and passed
// their checks.
func (r *result) okFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// dist summarizes one class of latency samples, in the samples' unit.
type dist struct {
	n        int
	p50, p90 float64
}

// summarize takes nearest-rank percentiles of samples. p90 is the highest
// percentile reported, so a workload needs at least 100 samples of a class
// for ten of them to lie beyond it.
func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{n: len(s), p50: quantile(s, 0.5), p90: quantile(s, 0.9)}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func (d dist) String() string {
	beyond := d.n - int(math.Ceil(0.9*float64(d.n)))
	return fmt.Sprintf("p50 %.4g p90 %.4g (n=%d, %d beyond p90)", d.p50, d.p90, d.n, beyond)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// medianTime runs f reps times and returns the median wall time in seconds.
func medianTime(reps int, f func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for range reps {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts), nil
}

// gcMark is a reading of the collector's cumulative counters.
type gcMark struct{ cycles, pauseNs uint64 }

func readGC() gcMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcMark{uint64(ms.NumGC), ms.PauseTotalNs}
}

// recordGC stores the collector work done since m as per-layer metrics.
func (r *result) recordGC(m gcMark) {
	now := readGC()
	r.layer["runtime.gc_cycles"] = float64(now.cycles - m.cycles)
	r.layer["runtime.gc_pause_ms"] = float64(now.pauseNs-m.pauseNs) / 1e6
}

// liveHeapMB forces a collection and returns the live heap it left.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
