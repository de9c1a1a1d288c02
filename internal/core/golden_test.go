package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/vecmath"
)

// Recovery rebuilds the setup phase from a checkpointed H, so its output must
// not change by a single bit across releases or worker counts. These digests
// were recorded on amd64 with the AVX2 vecmath bodies; a change that moves
// any of them changes the decisions a restarted service makes.
const (
	goldenH0        = "0ede22b3a81ee906591348b731334346d01aef23c9c37cbd63a997cc80970e56"
	goldenH0Kruskal = "e2306c6de96d7ccef20e3bb22b22a49dfacd5047698d7bccca1501c401736452"
	goldenLRD       = "e77eadb2dac1473879d5470132a206c51d0211225f7d8638de9334d2191d1708"
	goldenCoords    = "1debd4a82b23e7a2b4d3f92726681f2d404be31ab3554ce537dd348ed795f69d"
	goldenUpdate    = "62fc58169750b85a2d6e16e71584535b090a8866bafe34e601065495846c443b"
)

type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) float(v float64) { d.int(int(math.Float64bits(v))) }

func (d *digest) graph(g *graph.Graph) {
	d.int(g.NumNodes())
	d.int(g.NumEdges())
	for _, e := range g.Edges() {
		d.int(e.U)
		d.int(e.V)
		d.float(e.W)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// TestSetupGoldenDigest pins the setup phase's output on a small generated
// g3_circuit power grid: H(0) from both spanning-tree backbones, every LRD
// cluster id and diameter, the level-1 Krylov coordinates, and the decisions
// of one update batch. Every worker count must reproduce the same digests.
// Off amd64 the compiler may fuse multiply-adds, and without the AVX2 bodies
// vecmath's dot products sum in a different order; either changes float
// bits, so the test runs only on amd64 with SIMD active.
func TestSetupGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if !vecmath.SIMDActive() {
		t.Skip("golden digests are recorded with the AVX2 vecmath bodies, whose reductions sum in lane order")
	}
	tc, err := gen.Lookup("g3_circuit")
	if err != nil {
		t.Fatal(err)
	}
	g0, err := tc.Build(0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := gen.Stream(g0, gen.StreamConfig{
		Kind: gen.StreamLocal, HopRadius: 10, WeightHi: 3, Count: 300, Batches: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3, 7} {
		g := g0.Clone()
		init, err := grass.Sparsify(g, grass.Config{
			TargetDensity: 0.1, Tree: grass.TreeLowStretch, SimilarityFilter: true, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		kr, err := grass.Sparsify(g, grass.Config{TargetDensity: 0.1, Tree: grass.TreeMaxWeight, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{TargetCond: 100, Workers: workers, LRD: lrd.Config{Krylov: krylov.Config{Seed: 3, Workers: workers}}}
		s, err := NewSparsifier(g, init.H, cfg)
		if err != nil {
			t.Fatal(err)
		}

		dh := newDigest()
		dh.graph(init.H)
		for _, x := range init.Distortion {
			dh.float(x)
		}
		dk := newDigest()
		dk.graph(kr.H)

		dl := newDigest()
		dec := s.Decomposition()
		dl.int(dec.Levels)
		for l := 0; l < dec.Levels; l++ {
			dl.int(dec.NumClusters[l])
			for v := 0; v < dec.N; v++ {
				dl.int(int(dec.ClusterID(l, v)))
			}
			for _, x := range dec.Diameter[l] {
				dl.float(x)
			}
		}

		// Level 1 embeds H(0) itself, with lrd.Build's level-1 seed.
		kcfg := cfg.LRD.Krylov
		kcfg.Seed += 0x9e37
		emb, err := krylov.NewEmbedding(init.H, kcfg)
		if err != nil {
			t.Fatal(err)
		}
		dc := newDigest()
		dc.int(emb.Dims)
		for v := 0; v < emb.N; v++ {
			for _, x := range emb.Coord(v) {
				dc.float(x)
			}
		}

		decs, err := s.UpdateBatch(append([]graph.Edge(nil), stream[0]...))
		if err != nil {
			t.Fatal(err)
		}
		du := newDigest()
		for _, d := range decs {
			du.int(d.Edge.U)
			du.int(d.Edge.V)
			du.float(d.Edge.W)
			du.int(int(d.Action))
			du.float(d.Distortion)
			du.int(d.Target)
		}

		for _, c := range []struct{ name, got, want string }{
			{"H(0) low-stretch", dh.sum(), goldenH0},
			{"H(0) max-weight", dk.sum(), goldenH0Kruskal},
			{"LRD", dl.sum(), goldenLRD},
			{"level-1 coordinates", dc.sum(), goldenCoords},
			{"update decisions", du.sum(), goldenUpdate},
		} {
			if c.got != c.want {
				t.Errorf("workers %d: %s digest %s, want %s", workers, c.name, c.got, c.want)
			}
		}
	}
}
