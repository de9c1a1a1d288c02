// Command experiments regenerates the paper's evaluation artifacts on the
// synthetic benchmark suite:
//
//	experiments -table 1 [-cases a,b,c] [-scale 1] [-seed 1]
//	experiments -table 2 ...
//	experiments -table 3 [-case g2_circuit]
//	experiments -fig 4 [-cases delaunay_n14,delaunay_n15,...]
//	experiments -all
//
// Scale 1 is laptop-friendly; the paper's graph sizes correspond to scale
// 10-100 on the larger families. Output is the same row layout as the
// paper's tables so measured and published numbers can be compared side by
// side. perfbench/README.md documents the Table II protocol the repository's
// benchmark runs (the paper_update workload).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ingrass/internal/bench"
)

func main() {
	var (
		table    = flag.Int("table", 0, "table to reproduce: 1, 2, or 3")
		fig      = flag.Int("fig", 0, "figure to reproduce: 4")
		all      = flag.Bool("all", false, "run every table and figure")
		cases    = flag.String("cases", "", "comma-separated test cases (default: a representative subset)")
		oneCase  = flag.String("case", "g2_circuit", "test case for -table 3")
		scale    = flag.Float64("scale", 1.0, "benchmark size multiplier")
		seed     = flag.Uint64("seed", 1, "random seed")
		iters    = flag.Int("iters", 10, "update iterations (paper: 10)")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		condIter = flag.Int("cond-iters", 40, "power iterations per condition-number estimate")
	)
	flag.Parse()

	p := bench.Params{
		Scale:      *scale,
		Seed:       *seed,
		Iterations: *iters,
		Workers:    *workers,
		CondIters:  *condIter,
	}.WithDefaults()

	defaultCases := []string{"g2_circuit", "fe_4elt2", "fe_sphere", "delaunay_n14", "delaunay_n15", "social_ba"}
	names := defaultCases
	if *cases != "" {
		names = strings.Split(*cases, ",")
	}

	ran := false
	start := time.Now()
	if *all || *table == 1 {
		ran = true
		runTable1(names, p)
	}
	if *all || *table == 2 {
		ran = true
		runTable2(names, p)
	}
	if *all || *table == 3 {
		ran = true
		runTable3(*oneCase, p)
	}
	if *all || *fig == 4 {
		ran = true
		figCases := names
		if *cases == "" {
			figCases = []string{"delaunay_n14", "delaunay_n15", "delaunay_n16"}
		}
		runFig4(figCases, p)
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table N, -fig 4, or -all")
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func runTable1(names []string, p bench.Params) {
	fmt.Println("== Table I: GRASS time vs inGRASS setup time ==")
	rows, err := bench.RunTable1(names, p)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench.FormatTable1(rows))
	fmt.Println()
}

func runTable2(names []string, p bench.Params) {
	fmt.Println("== Table II: 10-iteration incremental sparsification (GRASS vs inGRASS vs Random) ==")
	rows, err := bench.RunTable2(names, p)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench.FormatTable2(rows))
	fmt.Println()
}

func runTable3(name string, p bench.Params) {
	fmt.Printf("== Table III: robustness across initial densities (%s) ==\n", name)
	rows, err := bench.RunTable3(name, []float64{0.127, 0.118, 0.09, 0.076, 0.066}, p)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench.FormatTable3(rows))
	fmt.Println()
}

func runFig4(names []string, p bench.Params) {
	fmt.Println("== Fig. 4: runtime scalability (GRASS vs inGRASS) ==")
	points, err := bench.RunFig4(names, p)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench.FormatFig4(points))
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
