package grass

import (
	"context"
	"math"
	"sort"
	"testing"

	"ingrass/internal/cond"
	"ingrass/internal/graph"
	"ingrass/internal/tree"
	"ingrass/internal/vecmath"
)

func grid(r, c int) *graph.Graph {
	g := graph.New(r*c, 2*r*c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), 1)
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), 1)
			}
		}
	}
	return g
}

func weightedRandom(n, extra int, seed uint64) *graph.Graph {
	r := vecmath.NewRNG(seed)
	g := graph.New(n, n+extra)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)], r.Range(0.1, 10))
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, r.Range(0.1, 10))
		}
	}
	return g
}

func TestSparsifyBasics(t *testing.T) {
	g := grid(10, 10)
	res, err := Sparsify(g, Config{TargetDensity: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := res.H
	if h.NumNodes() != g.NumNodes() {
		t.Fatal("node set must be preserved")
	}
	if !graph.IsConnected(h) {
		t.Fatal("sparsifier must be connected")
	}
	wantOff := int(0.1 * float64(g.NumEdges()))
	if res.OffTree != wantOff {
		t.Fatalf("off-tree edges %d, want %d", res.OffTree, wantOff)
	}
	if res.TreeEdges != g.NumNodes()-1 {
		t.Fatalf("tree edges %d", res.TreeEdges)
	}
	if h.NumEdges() != res.TreeEdges+res.OffTree {
		t.Fatal("edge accounting broken")
	}
	// Density measure agrees.
	d := graph.OffTreeDensity(h.NumEdges(), g.NumNodes(), g.NumEdges())
	if math.Abs(d-0.1) > 0.01 {
		t.Fatalf("off-tree density %v", d)
	}
}

func TestDistortionOrdering(t *testing.T) {
	g := weightedRandom(100, 300, 2)
	res, err := Sparsify(g, Config{TargetDensity: 0.15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Without filtering, admitted distortions are non-increasing.
	for i := 1; i < len(res.Distortion); i++ {
		if res.Distortion[i] > res.Distortion[i-1]+1e-12 {
			t.Fatalf("distortions not sorted at %d: %v > %v", i, res.Distortion[i], res.Distortion[i-1])
		}
	}
}

func TestSimilarityFilterSkipsRedundant(t *testing.T) {
	// A graph with many parallel-ish candidate cycles: grid plus clique on
	// one corner region; the filter should mark some candidates redundant.
	g := grid(12, 12)
	res, err := Sparsify(g, Config{TargetDensity: 0.3, SimilarityFilter: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedRedundant == 0 {
		t.Fatal("expected the similarity filter to skip something on a dense grid")
	}
	// Budget still honored (backfill).
	wantOff := int(0.3 * float64(g.NumEdges()))
	if res.OffTree != wantOff {
		t.Fatalf("off-tree %d want %d", res.OffTree, wantOff)
	}
}

func TestDensityZeroGivesTree(t *testing.T) {
	g := grid(6, 6)
	res, err := Sparsify(g, Config{TargetDensity: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.OffTree != 0 || res.H.NumEdges() != g.NumNodes()-1 {
		t.Fatalf("expected pure tree, got %d edges", res.H.NumEdges())
	}
}

func TestHigherDensityLowersKappa(t *testing.T) {
	g := weightedRandom(80, 240, 5)
	sparse1, err := InitialSparsifier(g, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	sparse2, err := InitialSparsifier(g, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := cond.Estimate(context.Background(), g, sparse1.H, cond.Options{Seed: 1, MaxIters: 120})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := cond.Estimate(context.Background(), g, sparse2.H, cond.Options{Seed: 1, MaxIters: 120})
	if err != nil {
		t.Fatal(err)
	}
	if k2.Kappa >= k1.Kappa {
		t.Fatalf("denser sparsifier should have smaller kappa: %v vs %v", k2.Kappa, k1.Kappa)
	}
}

func TestMaxWeightTreeVariant(t *testing.T) {
	g := weightedRandom(60, 120, 6)
	res, err := Sparsify(g, Config{TargetDensity: 0.1, Tree: TreeMaxWeight, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(res.H) {
		t.Fatal("max-weight variant must span")
	}
}

func TestSparsifyErrors(t *testing.T) {
	if _, err := Sparsify(graph.New(0, 0), Config{}); err == nil {
		t.Fatal("expected empty-graph error")
	}
	g := grid(3, 3)
	if _, err := Sparsify(g, Config{TargetDensity: 1.5}); err == nil {
		t.Fatal("expected density range error")
	}
	if _, err := Sparsify(g, Config{TargetDensity: -0.1}); err == nil {
		t.Fatal("expected density range error")
	}
}

func TestSparsifierPreservesQuadraticFormRoughly(t *testing.T) {
	// For smooth test vectors the sparsifier's quadratic form should be
	// within a small factor of the original's (that is its whole point).
	g := grid(10, 10)
	res, err := InitialSparsifier(g, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Smooth vector: coordinates of grid position.
	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = float64(i%10) + 0.5*float64(i/10)
	}
	vecmath.CenterMean(x)
	qg := g.QuadraticForm(x)
	qh := res.H.QuadraticForm(x)
	if qh > qg*1.0001 {
		t.Fatalf("subgraph quadratic form %v exceeds original %v", qh, qg)
	}
	if qh < qg/25 {
		t.Fatalf("sparsifier too weak on smooth vector: %v vs %v", qh, qg)
	}
}

// TestEqualDistortionsAdmitInEdgeOrder checks the candidate ranking on a
// unit-weight grid, where tree-path lengths tie in large groups: admission
// must follow descending distortion with equal distortions in ascending
// edge index, the order a stable sort of the off-tree edges gives.
func TestEqualDistortionsAdmitInEdgeOrder(t *testing.T) {
	g := grid(12, 12)
	res, err := Sparsify(g, Config{TargetDensity: 0.2, Tree: TreeMaxWeight})
	if err != nil {
		t.Fatal(err)
	}
	st := tree.MaxWeight(g)
	oracle := tree.NewPathOracle(st)
	off := st.OffTreeEdges()
	dist := make(map[int]float64, len(off))
	for _, ei := range off {
		e := g.Edge(ei)
		dist[ei] = e.W * oracle.Resistance(e.U, e.V)
	}
	want := append([]int(nil), off...)
	sort.SliceStable(want, func(a, b int) bool { return dist[want[a]] > dist[want[b]] })
	want = want[:res.OffTree]

	index := make(map[uint64]int, g.NumEdges())
	for i, e := range g.Edges() {
		index[e.Key()] = i
	}
	ties := 0
	for k, e := range res.H.Edges()[res.TreeEdges:] {
		got := index[e.Key()]
		if got != want[k] {
			t.Fatalf("admission %d: edge %d (distortion %v), want edge %d (distortion %v)",
				k, got, dist[got], want[k], dist[want[k]])
		}
		if k > 0 && dist[want[k]] == dist[want[k-1]] {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no tied distortions among admitted edges; the test checks nothing")
	}
}
