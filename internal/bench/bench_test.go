package bench

import (
	"strings"
	"testing"
)

// Tiny-scale smoke runs: the harness must produce structurally sane rows
// quickly. Shape assertions are deliberately lenient — tiny graphs are
// noisy. The scale-1 Table II protocol is the paper_update workload of
// perfbench (see perfbench/README.md).
func tinyParams() Params {
	return Params{
		Scale:      0.01,
		Seed:       1,
		Iterations: 3,
		CondIters:  25,
		CondTol:    1e-2,
	}.WithDefaults()
}

func TestRunTable1Smoke(t *testing.T) {
	rows, err := RunTable1([]string{"g2_circuit", "fe_4elt2"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Nodes <= 0 || r.Edges <= 0 {
			t.Fatalf("bad sizes %+v", r)
		}
		if r.GrassT <= 0 || r.SetupT <= 0 {
			t.Fatalf("missing timings %+v", r)
		}
		if r.SetupErr != "" {
			t.Fatalf("setup failed: %s", r.SetupErr)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "g2_circuit") || !strings.Contains(out, "Setup") {
		t.Fatalf("format output wrong:\n%s", out)
	}
}

func TestRunTable1UnknownCase(t *testing.T) {
	if _, err := RunTable1([]string{"nope"}, tinyParams()); err == nil {
		t.Fatal("expected unknown-case error")
	}
}

func TestRunTable2Smoke(t *testing.T) {
	rows, err := RunTable2([]string{"fe_4elt2"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Kappa0 <= 0 {
		t.Fatalf("kappa0 %v", r.Kappa0)
	}
	// Drift must not make things better.
	if r.KappaDrift < r.Kappa0*0.8 {
		t.Fatalf("frozen sparsifier cannot improve: %v -> %v", r.Kappa0, r.KappaDrift)
	}
	if r.D0 <= 0 || r.DFull <= r.D0 {
		t.Fatalf("density evolution wrong: %v -> %v", r.D0, r.DFull)
	}
	if r.InGrassD <= 0 || r.InGrassD > r.DFull {
		t.Fatalf("inGRASS density %v outside (0, %v]", r.InGrassD, r.DFull)
	}
	if r.GrassT <= 0 || r.InGrassT <= 0 || r.SetupT <= 0 {
		t.Fatalf("timings missing: %+v", r)
	}
	// The headline claim, held even at tiny scale: updating is much faster
	// than re-running.
	if r.Speedup <= 1 {
		t.Fatalf("speedup %v <= 1", r.Speedup)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "fe_4elt2") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

func TestRunTable3Smoke(t *testing.T) {
	rows, err := RunTable3("g2_circuit", []float64{0.12, 0.07}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	// Lower initial density => larger (worse) initial kappa, usually.
	if rows[1].Kappa0 < rows[0].Kappa0*0.5 {
		t.Fatalf("kappa ordering very wrong: %v vs %v", rows[0].Kappa0, rows[1].Kappa0)
	}
	for _, r := range rows {
		if r.InGrassD <= 0 || r.GrassD <= 0 {
			t.Fatalf("missing densities %+v", r)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "GRASS-D") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

func TestRunFig4Smoke(t *testing.T) {
	points, err := RunFig4([]string{"delaunay_n14", "delaunay_n15"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %d", len(points))
	}
	for _, pt := range points {
		if pt.Speedup <= 1 {
			t.Fatalf("speedup %v <= 1 at %s", pt.Speedup, pt.Name)
		}
		if pt.InGrassTotalT <= pt.InGrassT {
			t.Fatal("total must include setup")
		}
	}
	out := FormatFig4(points)
	if !strings.Contains(out, "#") || !strings.Contains(out, "Speedup") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.Scale != 1 || p.InitialDensity != 0.10 || p.FinalDensity != 0.34 || p.Iterations != 10 {
		t.Fatalf("defaults wrong: %+v", p)
	}
	p2 := Params{Scale: 2, Iterations: 5}.WithDefaults()
	if p2.Scale != 2 || p2.Iterations != 5 {
		t.Fatalf("explicit values overridden: %+v", p2)
	}
}
