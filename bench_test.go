package ingrass

// Benchmark harness: one benchmark per table and figure of the paper, plus
// the ablations called out in DESIGN.md and microbenchmarks for the O(log N)
// per-edge update claim. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks run at reduced scale (BenchScale) so the suite completes in
// minutes; cmd/experiments regenerates the full tables with condition
// numbers at any scale.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ingrass/internal/core"
	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/partition"
	"ingrass/internal/precond"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/tree"
	"ingrass/internal/vecmath"
)

// BenchScale shrinks the paper's graph sizes to benchmark-friendly ones.
const BenchScale = 0.1

var benchCases = []string{"g2_circuit", "fe_4elt2", "fe_sphere", "delaunay_n14", "social_ba"}

// cachedGraph memoizes generated benchmark graphs across benchmarks.
var cachedGraphs sync.Map // name -> *graph.Graph

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if g, ok := cachedGraphs.Load(name); ok {
		return g.(*graph.Graph)
	}
	tc, err := gen.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := tc.Build(BenchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	cachedGraphs.Store(name, g)
	return g
}

func benchSparsifier(b *testing.B, g *graph.Graph) *grass.Result {
	b.Helper()
	res, err := grass.Sparsify(g, grass.Config{
		TargetDensity:    0.10,
		Tree:             grass.TreeLowStretch,
		SimilarityFilter: true,
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchStream(b *testing.B, g *graph.Graph, count, batches int) [][]graph.Edge {
	b.Helper()
	s, err := gen.Stream(g, gen.StreamConfig{
		Kind:    gen.StreamLocal,
		Count:   count,
		Batches: batches,
		Seed:    7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// --- Table I -------------------------------------------------------------

// BenchmarkTable1Grass measures the from-scratch GRASS sparsification that
// Table I's left timing column reports.
func BenchmarkTable1Grass(b *testing.B) {
	for _, name := range benchCases {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(float64(g.NumEdges()), "edges")
			for i := 0; i < b.N; i++ {
				benchSparsifier(b, g)
			}
		})
	}
}

// BenchmarkTable1Setup measures inGRASS's one-time setup phase (Krylov
// embedding + LRD decomposition + multilevel sketch), Table I's right
// column.
func BenchmarkTable1Setup(b *testing.B) {
	for _, name := range benchCases {
		g := benchGraph(b, name)
		h := benchSparsifier(b, g).H
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gi := g.Clone()
				hi := h.Clone()
				b.StartTimer()
				if _, err := core.NewSparsifier(gi, hi, core.Config{
					TargetCond: 100,
					LRD:        lrd.Config{Krylov: krylov.Config{Seed: 1}},
				}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
		})
	}
}

// --- Table II ------------------------------------------------------------

// BenchmarkTable2InGrassUpdates measures the 10-batch incremental update
// stream — the paper's inGRASS-T column.
func BenchmarkTable2InGrassUpdates(b *testing.B) {
	for _, name := range benchCases {
		g := benchGraph(b, name)
		init := benchSparsifier(b, g)
		count := int(0.24 * float64(g.NumEdges()))
		stream := benchStream(b, g, count, 10)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := g.Clone()
				hi := init.H.Clone()
				sp, err := core.NewSparsifier(gi, hi, core.Config{
					TargetCond: 100,
					LRD:        lrd.Config{Krylov: krylov.Config{Seed: 1}},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range stream {
					if _, err := sp.UpdateBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(count), "stream-edges")
		})
	}
}

// BenchmarkTable2GrassRerun measures re-running GRASS from scratch after
// every batch — the paper's GRASS-T column (the baseline inGRASS replaces).
func BenchmarkTable2GrassRerun(b *testing.B) {
	for _, name := range benchCases {
		g := benchGraph(b, name)
		count := int(0.24 * float64(g.NumEdges()))
		stream := benchStream(b, g, count, 10)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := g.Clone()
				b.StartTimer()
				for _, batch := range stream {
					for _, e := range batch {
						gi.AddEdge(e.U, e.V, e.W)
					}
					benchSparsifier(b, gi)
				}
			}
		})
	}
}

// --- Table III -----------------------------------------------------------

// BenchmarkTable3InitialDensity sweeps the initial sparsifier density on
// the G2_circuit analog, measuring the full update stream at each setting.
func BenchmarkTable3InitialDensity(b *testing.B) {
	g := benchGraph(b, "g2_circuit")
	count := int(0.3 * float64(g.NumEdges()))
	stream := benchStream(b, g, count, 10)
	for _, density := range []float64{0.127, 0.118, 0.09, 0.076, 0.066} {
		b.Run(fmt.Sprintf("D=%.3f", density), func(b *testing.B) {
			init, err := grass.Sparsify(g, grass.Config{
				TargetDensity: density, Tree: grass.TreeLowStretch,
				SimilarityFilter: true, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := g.Clone()
				hi := init.H.Clone()
				sp, err := core.NewSparsifier(gi, hi, core.Config{
					TargetCond: 100,
					LRD:        lrd.Config{Krylov: krylov.Config{Seed: 1}},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range stream {
					if _, err := sp.UpdateBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Fig. 4 --------------------------------------------------------------

// BenchmarkFig4Scalability sweeps Delaunay sizes, timing the update stream
// (the per-size GRASS rerun cost is BenchmarkTable2GrassRerun; together
// they reproduce Fig. 4's two series).
func BenchmarkFig4Scalability(b *testing.B) {
	for _, n := range []int{4000, 8000, 16000, 32000} {
		g, err := gen.Delaunay(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		init, err := grass.Sparsify(g, grass.Config{
			TargetDensity: 0.10, Tree: grass.TreeLowStretch,
			SimilarityFilter: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		count := int(0.24 * float64(g.NumEdges()))
		stream, err := gen.Stream(g, gen.StreamConfig{Kind: gen.StreamLocal, Count: count, Batches: 10, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := g.Clone()
				hi := init.H.Clone()
				sp, err := core.NewSparsifier(gi, hi, core.Config{
					TargetCond: 100,
					LRD:        lrd.Config{Krylov: krylov.Config{Seed: 1}},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range stream {
					if _, err := sp.UpdateBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(count)/float64(b.Elapsed().Nanoseconds())*1e9*float64(b.N), "edges/s")
		})
	}
}

// --- Ablations (DESIGN.md section 5) --------------------------------------

// BenchmarkAblationTree compares the two spanning-tree backbones of the
// GRASS baseline.
func BenchmarkAblationTree(b *testing.B) {
	g := benchGraph(b, "delaunay_n14")
	for _, kind := range []struct {
		name string
		k    grass.TreeKind
	}{{"lowstretch", grass.TreeLowStretch}, {"maxweight", grass.TreeMaxWeight}} {
		b.Run(kind.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := grass.Sparsify(g, grass.Config{
					TargetDensity: 0.10, Tree: kind.k, SimilarityFilter: true, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKrylovOrder sweeps the resistance-embedding subspace
// dimension m (setup cost grows with m; estimation quality saturates).
func BenchmarkAblationKrylovOrder(b *testing.B) {
	g := benchGraph(b, "fe_4elt2")
	for _, m := range []int{8, 16, 24, 32} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := krylov.NewEmbedding(g, krylov.Config{Order: m, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWeightTransfer compares update throughput with the
// paper's weight transfer on versus pure discard.
func BenchmarkAblationWeightTransfer(b *testing.B) {
	g := benchGraph(b, "g2_circuit")
	init := benchSparsifier(b, g)
	stream := benchStream(b, g, int(0.2*float64(g.NumEdges())), 10)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"transfer", false}, {"discard", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := g.Clone()
				hi := init.H.Clone()
				sp, err := core.NewSparsifier(gi, hi, core.Config{
					TargetCond:            100,
					DisableWeightTransfer: mode.disable,
					LRD:                   lrd.Config{Krylov: krylov.Config{Seed: 1}},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range stream {
					if _, err := sp.UpdateBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Microbenchmarks -------------------------------------------------------

// BenchmarkUpdatePerEdge isolates the per-edge update cost across graph
// sizes — the paper's O(log N) claim. ns/op is per single-edge batch.
func BenchmarkUpdatePerEdge(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		g, err := gen.Delaunay(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		init, err := grass.Sparsify(g, grass.Config{
			TargetDensity: 0.10, Tree: grass.TreeLowStretch, SimilarityFilter: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		gi := g.Clone()
		hi := init.H.Clone()
		sp, err := core.NewSparsifier(gi, hi, core.Config{
			TargetCond: 100,
			LRD:        lrd.Config{Krylov: krylov.Config{Seed: 1}},
		})
		if err != nil {
			b.Fatal(err)
		}
		stream, err := gen.Stream(g, gen.StreamConfig{Kind: gen.StreamLocal, Count: 4096, Batches: 1, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		flat := stream[0]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := flat[i%len(flat)]
				// Re-add the same pool cyclically; parallel edges are legal.
				if _, err := sp.UpdateBatch([]graph.Edge{e}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKrylovEmbedding measures setup phase 1 alone.
func BenchmarkKrylovEmbedding(b *testing.B) {
	g := benchGraph(b, "delaunay_n14")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := krylov.NewEmbedding(g, krylov.Config{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLRDBuild measures setup phase 2 alone.
func BenchmarkLRDBuild(b *testing.B) {
	g := benchGraph(b, "delaunay_n14")
	h := benchSparsifier(b, g).H
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrd.Build(h, lrd.Config{Krylov: krylov.Config{Seed: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLapSolve measures one Jacobi-PCG Laplacian solve, the inner
// kernel of exact resistance and condition-number estimation.
func BenchmarkLapSolve(b *testing.B) {
	g := benchGraph(b, "fe_4elt2")
	s := sparse.NewLaplacianSolver(g, solver.Options{Tol: 1e-6})
	rhs := make([]float64, g.NumNodes())
	vecmath.NewRNG(1).FillNormal(rhs)
	vecmath.CenterMean(rhs)
	dst := make([]float64, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(context.Background(), dst, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreePathOracle measures O(1) tree resistance queries.
func BenchmarkTreePathOracle(b *testing.B) {
	g := benchGraph(b, "delaunay_n14")
	st := tree.LowStretch(g, 1)
	oracle := tree.NewPathOracle(st)
	n := g.NumNodes()
	r := vecmath.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = oracle.Resistance(r.Intn(n), r.Intn(n))
	}
}

// BenchmarkDelaunayGeneration measures the Bowyer-Watson triangulator.
func BenchmarkDelaunayGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.Delaunay(10000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFilterLevel sweeps the filtering level cap: shallow
// levels (fine clusters) include more edges per batch; deep levels filter
// aggressively. Measures the full update stream per setting.
func BenchmarkAblationFilterLevel(b *testing.B) {
	g := benchGraph(b, "fe_4elt2")
	init := benchSparsifier(b, g)
	stream := benchStream(b, g, int(0.2*float64(g.NumEdges())), 10)
	for _, cap := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("maxLevel=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := g.Clone()
				hi := init.H.Clone()
				sp, err := core.NewSparsifier(gi, hi, core.Config{
					TargetCond:     1e9, // let MaxFilterLevel dominate
					MaxFilterLevel: cap,
					LRD:            lrd.Config{Krylov: krylov.Config{Seed: 1}},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range stream {
					if _, err := sp.UpdateBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPartitionSparsified compares spectral bisection on the full
// graph versus through the sparsifier (the examples/partition workflow).
func BenchmarkPartitionSparsified(b *testing.B) {
	g, err := gen.RandomGeometric(3000, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	init := benchSparsifier(b, g)
	opts := partition.Options{Seed: 1, MaxIters: 25}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.Bisect(context.Background(), g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparsified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.BisectWithSparsifier(context.Background(), g, init.H, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolvePreconditioned compares Jacobi-PCG on G against PCG
// preconditioned by the exact factor of the sparsifier, on every Table II
// family. Both rows report outer_iters; the sparsifier row also reports the
// factor's fill ratio nnz(L)/|E_G| (0 when the fill cap tripped and the
// solve fell back to Jacobi) and factor_ms, the time of one FactorizeFor.
// The factor is built once per generation and reused by every solve
// against it, so ns/op excludes it.
func BenchmarkSolvePreconditioned(b *testing.B) {
	for _, name := range benchCases {
		g := benchGraph(b, name)
		init := benchSparsifier(b, g)
		n := g.NumNodes()
		rhs := make([]float64, n)
		vecmath.NewRNG(2).FillNormal(rhs)
		vecmath.CenterMean(rhs)
		lop := sparse.NewLapOperator(g)
		proj := &sparse.ProjectedOperator{Inner: lop}
		opts := solver.Options{Tol: 1e-8, MaxIter: 10000}
		x := make([]float64, n)
		b.Run(name+"/jacobi", func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				vecmath.Zero(x)
				res, err := sparse.CG(context.Background(), proj, x, rhs, lop.Jacobi(), nil, opts)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "outer_iters")
		})
		b.Run(name+"/sparsifier", func(b *testing.B) {
			start := time.Now()
			p, err := precond.FactorizeFor(init.H, g.NumEdges(), solver.Options{})
			if err != nil {
				b.Fatal(err)
			}
			factorMS := float64(time.Since(start).Nanoseconds()) / 1e6
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := p.Solve(context.Background(), proj, x, rhs, opts)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Outer.Iterations
			}
			b.ReportMetric(float64(iters), "outer_iters")
			b.ReportMetric(float64(p.FactorNNZ())/float64(g.NumEdges()), "fill_ratio")
			b.ReportMetric(factorMS, "factor_ms")
		})
	}
}
