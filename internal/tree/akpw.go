package tree

import (
	"slices"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// LowStretch builds a spanning forest with an AKPW-flavored multilevel
// clustering scheme (Alon-Karp-Peleg-West as refined by Abraham-Neiman):
//
//  1. Edges are admitted in decreasing weight classes (geometric buckets
//     with growth factor mu), since in the conductance model heavy edges
//     are low-resistance and should be near the bottom of the tree.
//  2. At each level, the current clusters are grouped by randomized
//     low-diameter ball growing over the admissible inter-cluster edges;
//     BFS edges of each ball join the tree and the ball contracts into a
//     single cluster for the next level.
//
// Compared to the plain maximum-weight tree, the shallow balls bound the
// hop diameter of each cluster, which is what keeps the average stretch —
// and hence the resistance diameter that the LRD decomposition later
// partitions — low. seed makes the randomized ball growing deterministic.
func LowStretch(g *graph.Graph, seed uint64) *SpanningTree {
	n := g.NumNodes()
	if n == 0 || g.NumEdges() == 0 {
		return New(g, nil)
	}
	rng := vecmath.NewRNG(seed)
	uf := graph.NewUnionFind(n)
	treeEdges := make([]int, 0, n-1)

	_, targetComponents := graph.Components(g)

	maxW := g.Edge(0).W
	minW := maxW
	for _, e := range g.Edges() {
		if e.W > maxW {
			maxW = e.W
		}
		if e.W < minW {
			minW = e.W
		}
	}
	const mu = 4.0
	threshold := maxW / mu

	type superArc struct {
		to   int
		edge int
	}
	// Reused scratch, sized on demand per level.
	adj := make(map[int][]superArc)
	assigned := make(map[int]bool)

	for uf.Count() > targetComponents {
		// Gather admissible edges that cross current clusters.
		clear(adj)
		crossCount := 0
		for ei, e := range g.Edges() {
			if e.W < threshold {
				continue
			}
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				continue
			}
			adj[ru] = append(adj[ru], superArc{to: rv, edge: ei})
			adj[rv] = append(adj[rv], superArc{to: ru, edge: ei})
			crossCount++
		}
		if crossCount == 0 {
			if threshold <= 0 {
				break // only cross-component edges remain impossible
			}
			// Admit the next weight class; below the minimum weight admit
			// everything so termination is unconditional.
			if threshold <= minW {
				threshold = 0
			} else {
				threshold /= mu
			}
			continue
		}

		// Randomized ball growing over the supernode graph.
		supers := make([]int, 0, len(adj))
		for s := range adj {
			supers = append(supers, s)
		}
		// Map iteration order is nondeterministic; sort then shuffle with
		// the seeded RNG for reproducibility.
		slices.Sort(supers)
		rng.Shuffle(len(supers), func(i, j int) { supers[i], supers[j] = supers[j], supers[i] })

		clear(assigned)
		queue := make([]int, 0, 64)
		hops := make(map[int]int)
		for _, center := range supers {
			if assigned[center] {
				continue
			}
			radius := 1 + rng.Intn(2) // shallow balls: 1 or 2 hops
			assigned[center] = true
			clear(hops)
			hops[center] = 0
			queue = append(queue[:0], center)
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				if hops[x] >= radius {
					continue
				}
				for _, a := range adj[x] {
					if assigned[a.to] {
						continue
					}
					assigned[a.to] = true
					hops[a.to] = hops[x] + 1
					treeEdges = append(treeEdges, a.edge)
					uf.Union(x, a.to)
					queue = append(queue, a.to)
				}
			}
		}
		if threshold <= minW {
			threshold = 0
		} else {
			threshold /= mu
		}
	}
	return New(g, treeEdges)
}
