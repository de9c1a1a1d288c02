// Command perfbench is the repository's benchmark. It builds one workload's
// inputs from a seed, drives the workload from this process, checks every
// answer, and prints the end-to-end metrics as one JSON object on the last
// line of standard output. With --trace 1 it runs the workload a second time
// with timers around the calls into each module, prints the per-layer table
// and the tracing overhead, and the JSON object carries the per-layer
// metrics instead. README.md describes the workloads and metrics.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload paper_update --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one pass of one workload.
type config struct {
	seed    uint64
	seconds time.Duration // length of the measured phase
	traced  bool
	size    sizes
	dir     string // scratch space for data directories and logs
}

// sizes fixes how much work a pass does. The smoke test shrinks it.
type sizes struct {
	paperScale  float64 // g3_circuit scale on paper_update (4 = 160,000 nodes)
	solveScale  float64 // g2_circuit scale on the solve workloads (0.25 = 2,500 nodes)
	paperReps   int     // fewest set-up + stream repetitions on paper_update
	serviceReps int     // service constructions behind setup_s
	layerReps   int     // repetitions of each standalone layer timing on the solve workloads
	writeRate   float64 // solve_write writes per second
}

var fullSizes = sizes{paperScale: 4, solveScale: 0.25, paperReps: 3, serviceReps: 51, layerReps: 10, writeRate: 10}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"paper_update": paperUpdate,
	"solve_read":   solveRead,
	"solve_write":  solveWrite,
}

// defaultSeed is the seed used when --seed is not given.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes))
}

// run parses the flags, runs the workload and prints its results. It
// returns the process exit code: 0 when every check passed, 1 when a check
// failed, 2 when the workload could not run.
func run(args []string, stdout, stderr io.Writer, size sizes) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper_update, solve_read or solve_write")
	seed := fs.Uint64("seed", defaultSeed, "seed the right-hand sides are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper_update|solve_read|solve_write, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), size: size, dir: dir}
	plain, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	printReport(stdout, *name, "untraced", plain)
	final, metrics := plain, pick(plain.e2e, endToEnd)
	if *trace == 1 {
		cfg.traced = true
		traced, err := runner(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 2
		}
		printReport(stdout, *name, "traced", traced)
		traced.layer["trace.overhead_setup_s"] = traced.e2e["setup_s"] - plain.e2e["setup_s"]
		traced.layer["trace.overhead_op_us_p50"] = traced.e2e["op_us_p50"] - plain.e2e["op_us_p50"]
		printLayers(stdout, plain, traced)
		final = traced
		final.attempted += plain.attempted
		final.failed += plain.failed
		metrics = pick(traced.layer, perLayer)
	}

	prov, _ := json.Marshal(map[string]any{"provenance": final.prov})
	fmt.Fprintln(stdout, string(prov))
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{final.failed == 0 && final.attempted > 0, final.attempted, final.failed, metrics})
	fmt.Fprintln(stdout, string(out))
	if final.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their checks\n", *name, final.failed, final.attempted)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns every metric of specs, reading 0 for one never set.
func pick(vals map[string]float64, specs []spec) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{vals[s.name], s.unit}
	}
	return out
}

// scratchDir makes a private directory under .bench_build in the current
// directory, which the benchmark's wrapper keeps out of version control.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// provenance records what produced a pass: code, toolchain, machine and seed.
// The workload adds its graph, sizes and options.
func provenance(cfg config, workload string) map[string]any {
	commit := "unknown: not built from a git checkout"
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+uncommitted"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]any{
		"workload":     workload,
		"commit":       commit,
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"seed":         cfg.seed,
		"dataset_seed": datasetSeed,
		"program_seed": programSeed,
		"traced":       cfg.traced,
		"seconds":      cfg.seconds.Seconds(),
	}
}

func printReport(w io.Writer, name, pass string, r *result) {
	fmt.Fprintf(w, "== %s (%s pass)\n", name, pass)
	for _, line := range r.report {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, s := range endToEnd {
		fmt.Fprintf(w, "  %-14s %.6g %s\n", s.name, r.e2e[s.name], s.unit)
	}
}

// printLayers prints the per-layer table and the tracing overhead: the
// traced pass's end-to-end numbers minus the untraced pass's, same seed.
func printLayers(w io.Writer, plain, traced *result) {
	fmt.Fprintln(w, "== per-layer metrics (traced pass)")
	for _, s := range perLayer {
		fmt.Fprintf(w, "  %-30s %.6g %s\n", s.name, traced.layer[s.name], s.unit)
	}
	fmt.Fprintln(w, "== tracing overhead (traced minus untraced)")
	for _, s := range endToEnd {
		fmt.Fprintf(w, "  %-14s %+.6g %s\n", s.name, traced.e2e[s.name]-plain.e2e[s.name], s.unit)
	}
}
