package main

import (
	"context"
	"runtime"
	"time"

	"ingrass"
	"ingrass/internal/cond"
	"ingrass/internal/core"
	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/sketch"
	"ingrass/internal/solver"
	"ingrass/internal/tree"
)

// The paper's Table II protocol: H(0) at 10% off-tree density, then a
// stream of new edges that would raise it to 34% if every edge were kept.
const (
	initialDensity = 0.10
	finalDensity   = 0.34
	// streamSalt offsets the stream seed from the graph seed, as the
	// repository's Table II harness does.
	streamSalt = 0x51
	// targetCond is the library's default target condition number C
	// (ingrass.Options.TargetCond), which sets the filtering level.
	targetCond = 100
)

// Each workload's graph and edge stream stand in for the paper's fixed test
// cases, so they are one fixed dataset, generated with datasetSeed; the
// program's own randomness (spanning tree, embeddings, the kappa estimator's
// start vector) is configuration, fixed at programSeed, the default of
// `ingrass serve --seed`. The --seed argument draws the right-hand sides of
// the solve workloads. kappa swings with the dataset far beyond any bound a
// regression check could use, measured over five to ten seeds each: from 19
// to 45 with the 2,500-node graph, from 34 to 109 after the solve_write
// stream, and from 97 to 158 after the paper_update stream.
const (
	datasetSeed = 1
	programSeed = 1
)

// grassConfig and coreConfig are the configurations ingrass.NewIncremental
// and ingrass.NewService use with default options.
func grassConfig() grass.Config {
	return grass.Config{TargetDensity: initialDensity, Tree: grass.TreeLowStretch, SimilarityFilter: true, Seed: programSeed}
}

func lrdConfig() lrd.Config {
	return lrd.Config{Krylov: krylov.Config{Seed: programSeed}}
}

func coreConfig() core.Config {
	return core.Config{TargetCond: targetCond, LRD: lrdConfig()}
}

// buildCase generates one of the repository's benchmark graphs.
func buildCase(name string, scale float64) (*graph.Graph, error) {
	tc, err := gen.Lookup(name)
	if err != nil {
		return nil, err
	}
	return tc.Build(scale, datasetSeed)
}

// localStream draws count new edges near existing ones, split into batches,
// with the Table II harness's stream settings.
func localStream(g *graph.Graph, count, batches int) ([][]graph.Edge, error) {
	return gen.Stream(g, gen.StreamConfig{
		Kind: gen.StreamLocal, HopRadius: 10, WeightHi: 3,
		Count: count, Batches: batches, Seed: datasetSeed + streamSalt,
	})
}

// toPublic copies an internal graph into the public type, keeping edge order.
func toPublic(g *graph.Graph) *ingrass.Graph {
	p := ingrass.NewGraph(g.NumNodes())
	for _, e := range g.Edges() {
		if _, err := p.AddEdge(e.U, e.V, e.W); err != nil {
			panic(err) // the generators emit only valid edges
		}
	}
	return p
}

// toInternal copies a public graph into the internal type, keeping edge order.
func toInternal(p *ingrass.Graph) *graph.Graph {
	g := graph.New(p.NumNodes(), p.NumEdges())
	for _, e := range p.Edges() {
		g.AddEdge(e.U, e.V, e.W)
	}
	return g
}

func publicEdges(es []graph.Edge) []ingrass.Edge {
	out := make([]ingrass.Edge, len(es))
	for i, e := range es {
		out[i] = ingrass.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// traceSetupLayers times the set-up modules one by one on g, each call
// repeated reps times: grass.Sparsify builds H(0); tree.LowStretch is the
// spanning tree inside it; krylov.NewEmbedding is the first and largest of
// the per-level embeddings inside lrd.Build; lrd.Build and sketch.New are the
// two halves of core.NewSparsifier.
func traceSetupLayers(r *result, g *graph.Graph, reps int) error {
	var h0 *graph.Graph
	var err error
	if r.layer["grass.sparsify_s"], err = medianTime(reps, func() error {
		res, err := grass.Sparsify(g, grassConfig())
		if err == nil {
			h0 = res.H
		}
		return err
	}); err != nil {
		return err
	}
	r.layer["tree.lowstretch_s"], _ = medianTime(reps, func() error {
		tree.LowStretch(g, programSeed)
		return nil
	})
	if r.layer["krylov.embed_s"], err = medianTime(reps, func() error {
		// lrd.Build seeds its level-1 embedding this way.
		_, err := krylov.NewEmbedding(h0, krylov.Config{Seed: programSeed + 0x9e37})
		return err
	}); err != nil {
		return err
	}
	var dec *lrd.Decomposition
	if r.layer["lrd.build_s"], err = medianTime(reps, func() error {
		dec, err = lrd.Build(h0, lrdConfig())
		return err
	}); err != nil {
		return err
	}
	var sk *sketch.Structure
	if r.layer["sketch.new_s"], err = medianTime(reps, func() error {
		sk, err = sketch.New(dec, h0)
		return err
	}); err != nil {
		return err
	}
	r.layer["sketch.index_entries"] = float64(sk.MemoryFootprint())
	r.layer["lrd.levels"] = float64(dec.Levels)
	r.layer["lrd.filter_level"] = float64(dec.FilterLevel(targetCond))
	return nil
}

// timeKappa estimates kappa(L_G, L_H) at the Table II harness's settings
// and, on a traced pass, records how long it took.
func timeKappa(r *result, traced bool, g, h *graph.Graph) (float64, error) {
	t := time.Now()
	res, err := cond.Estimate(context.Background(), g, h, cond.Options{
		MaxIters:      40,
		Tol:           5e-3,
		Seed:          programSeed,
		LambdaMaxOnly: true,
		Solver:        solver.Options{Tol: 1e-5, MaxIter: 600, Workers: runtime.GOMAXPROCS(0)},
	})
	if traced {
		r.layer["cond.estimate_s"] = time.Since(t).Seconds()
	}
	return res.Kappa, err
}
