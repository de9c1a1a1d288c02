package precond

import (
	"math"
	"slices"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// maxFillRatio caps the factor's size against the system graph: once
// nnz(L) would pass maxFillRatio·|E_G| the elimination stops and the
// factorization falls back to G's Jacobi diagonal. Past that size one
// factor sweep costs more than a few SpMVs on G, which is what a
// Jacobi-PCG iteration pays instead. The Table II families' sparsifiers
// fill 1.0–2.9·|E_G|; a hub-heavy graph factored whole fills far past it.
const maxFillRatio = 4

// ldl is a grounded LDLᵀ factor of a graph Laplacian, stored in elimination
// order. Eliminating vertex v (weighted degree d_v in the current Schur
// complement) stores d_v and, for each remaining neighbour u, the
// multiplier w_vu/d_v; the Schur complement of a Laplacian is again a
// Laplacian, so every pivot is the sum of its row's weights. The vertex
// each component eliminates last has no neighbours left and a zero pivot:
// it is grounded (its potential is fixed at 0), which makes the factor a
// solve of L_H on the complement of the constant vectors.
type ldl struct {
	perm   []int32   // perm[k] is the vertex eliminated k-th
	colPtr []int32   // column k is colIdx/colVal[colPtr[k]:colPtr[k+1]]
	colIdx []int32   // elimination position of each later neighbour
	colVal []float64 // multiplier w_vu/d_v
	invD   []float64 // 1/d_v by position; 0 for grounded vertices
}

// nnz is the number of stored off-diagonal entries of L.
func (f *ldl) nnz() int { return len(f.colIdx) }

// arc is one weighted edge of the shrinking Schur-complement graph.
type arc struct {
	to int32
	w  float64
}

// eliminate factors the Laplacian of c by greedy minimum-degree
// elimination, or returns nil once the factor would store more than
// maxNNZ entries. Minimum degree takes every degree-1 and degree-2 vertex
// first — the spanning tree's leaves and the paths threading the off-tree
// edges, which fill nothing — and only then works through the remaining
// core. Degrees are kept exact in a bucket queue, so picking a pivot costs
// amortised O(1) rather than a scan.
func eliminate(c *graph.CSR, maxNNZ int) *ldl {
	n := c.N
	maxNNZ = min(maxNNZ, math.MaxInt32) // colPtr holds int32 offsets
	adj := make([][]arc, n)
	initial := make([]arc, len(c.ColIdx))
	for v := 0; v < n; v++ {
		lo, hi := c.RowPtr[v], c.RowPtr[v+1]
		for p := lo; p < hi; p++ {
			initial[p] = arc{int32(c.ColIdx[p]), c.Weights[p]}
		}
		// Capped capacity: a row that gains fill reallocates alone instead
		// of overwriting its successor.
		adj[v] = initial[lo:hi:hi]
	}
	q := newDegreeQueue(adj)
	f := &ldl{
		perm:   make([]int32, n),
		colPtr: make([]int32, n+1),
		invD:   make([]float64, n),
	}
	pos := make([]int32, n)  // elimination position per vertex
	slot := make([]int32, n) // 1 + index of a vertex in the row being merged
	for k := 0; k < n; k++ {
		v := q.popMin()
		nb := adj[v]
		if len(f.colIdx)+len(nb) > maxNNZ {
			return nil
		}
		var d float64
		for _, a := range nb {
			d += a.w
		}
		f.perm[k], pos[v] = int32(v), int32(k)
		if len(nb) > 0 {
			f.invD[k] = 1 / d
		}
		for _, a := range nb {
			f.colIdx = append(f.colIdx, a.to)
			f.colVal = append(f.colVal, a.w/d)
		}
		f.colPtr[k+1] = int32(len(f.colIdx))

		// Schur complement: v leaves each neighbour's row, and every pair
		// of its neighbours gains an edge of weight w_va·w_vb/d_v.
		for _, a := range nb {
			row := adj[a.to]
			for i, e := range row {
				slot[e.to] = int32(i + 1)
			}
			i, last := slot[v]-1, len(row)-1
			row[i] = row[last]
			slot[row[i].to] = i + 1
			row = row[:last]
			slot[v] = 0
			for _, b := range nb {
				if b.to == a.to {
					continue
				}
				w := a.w * b.w / d
				if s := slot[b.to]; s > 0 {
					row[s-1].w += w
				} else {
					row = append(row, arc{b.to, w})
					slot[b.to] = int32(len(row))
				}
			}
			for _, e := range row {
				slot[e.to] = 0
			}
			adj[a.to] = row
			q.update(int(a.to), len(row))
		}
		adj[v] = nil
	}
	// Exact-size copies: the factor lives as long as its generation, and
	// append's doubling would otherwise keep up to twice its size live.
	f.colIdx, f.colVal = slices.Clone(f.colIdx), slices.Clone(f.colVal)
	for p, u := range f.colIdx {
		f.colIdx[p] = pos[u]
	}
	return f
}

// solve writes dst = L⁺ src, mean-centred on both sides: a forward sweep,
// a diagonal scale, a backward sweep. y is scratch of length n; dst may
// not alias src or y. Every column of a blocked application runs this same
// sweep, so blocked and single solves agree bit for bit.
func (f *ldl) solve(dst, src, y []float64) {
	mean := vecmath.Mean(src)
	for k, v := range f.perm {
		y[k] = src[v] - mean
	}
	for k := range y {
		lo, hi := f.colPtr[k], f.colPtr[k+1]
		idx, val := f.colIdx[lo:hi], f.colVal[lo:hi]
		yk := y[k]
		for p, u := range idx {
			y[u] += val[p] * yk
		}
	}
	for k := len(y) - 1; k >= 0; k-- {
		lo, hi := f.colPtr[k], f.colPtr[k+1]
		idx, val := f.colIdx[lo:hi], f.colVal[lo:hi]
		s := y[k] * f.invD[k]
		for p, u := range idx {
			s += val[p] * y[u]
		}
		y[k] = s
	}
	mean = vecmath.Mean(y)
	for k, v := range f.perm {
		dst[v] = y[k] - mean
	}
}

// degreeQueue is a bucket queue of vertices keyed by current degree: one
// doubly linked list per degree, and a cursor at the smallest non-empty
// bucket.
type degreeQueue struct {
	head       []int32 // first vertex of each degree, or -1
	next, prev []int32
	deg        []int32
	min        int
}

func newDegreeQueue(adj [][]arc) *degreeQueue {
	n := len(adj)
	q := &degreeQueue{
		head: make([]int32, n+1),
		next: make([]int32, n),
		prev: make([]int32, n),
		deg:  make([]int32, n),
		min:  n,
	}
	for d := range q.head {
		q.head[d] = -1
	}
	for v := n - 1; v >= 0; v-- {
		q.push(v, len(adj[v]))
	}
	return q
}

func (q *degreeQueue) push(v, d int) {
	q.deg[v] = int32(d)
	q.prev[v] = -1
	q.next[v] = q.head[d]
	if h := q.head[d]; h >= 0 {
		q.prev[h] = int32(v)
	}
	q.head[d] = int32(v)
	q.min = min(q.min, d)
}

func (q *degreeQueue) remove(v int) {
	if p := q.prev[v]; p >= 0 {
		q.next[p] = q.next[v]
	} else {
		q.head[q.deg[v]] = q.next[v]
	}
	if nx := q.next[v]; nx >= 0 {
		q.prev[nx] = q.prev[v]
	}
}

// popMin removes and returns a vertex of least degree; the queue must not
// be empty.
func (q *degreeQueue) popMin() int {
	for q.head[q.min] < 0 {
		q.min++
	}
	v := int(q.head[q.min])
	q.remove(v)
	return v
}

// update moves v to the bucket of its new degree d.
func (q *degreeQueue) update(v, d int) {
	q.remove(v)
	q.push(v, d)
}
