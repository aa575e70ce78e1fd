// Package ugraph implements uncertain (probabilistic) undirected graphs
// under possible-world semantics.
//
// An uncertain graph G = (V, E, p) assigns each edge e an independent
// existence probability p(e) ∈ (0, 1]. G denotes a distribution over the
// 2^|E| deterministic graphs ("possible worlds") obtained by materializing
// each edge independently with its probability.
//
// Vertices are dense integers 0..N-1. Each undirected edge is stored once
// with normalized endpoints U < V and is identified by its index in the
// edge list. The package provides expected-degree and entropy computations,
// connectivity utilities, possible-world sampling, induced and edge
// subgraphs, and a plain-text interchange format.
package ugraph

import (
	"fmt"
	"io"
	"sort"
)

// Edge is an undirected uncertain edge with existence probability P.
// Endpoints are normalized so that U < V.
type Edge struct {
	U, V int
	P    float64
}

// Other returns the endpoint of e that is not x.
// It panics if x is not an endpoint of e.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("ugraph: vertex %d is not an endpoint of edge (%d,%d)", x, e.U, e.V))
}

// Arc is a half-edge in an adjacency list: the neighboring vertex and the
// identifier of the underlying undirected edge.
type Arc struct {
	To int // neighbor vertex
	ID int // edge index in the graph's edge list
}

// Graph is an uncertain undirected graph. The zero value is an empty graph
// with no vertices; use New or a Builder to construct instances.
//
// Adjacency is stored in compressed sparse row (CSR) form: one flat arc
// array grouped by source vertex plus an offset table. Neighbors returns a
// subslice of the arc array, so iteration is a contiguous scan with no
// per-vertex slice-header indirection; BFS-style kernels can also walk
// ArcOffsets/Arcs directly.
//
// Graph is not safe for concurrent mutation. Concurrent readers are safe as
// long as no goroutine calls SetProb or ApplyEditsInPlace, the two
// mutators. ApplyEditsInPlace rewrites the CSR too, which a reweight-only
// ApplyEdits result shares with its heap input.
//
// A graph returned by OpenMapped is a read-only view whose CSR slices
// alias a file mapping: SetProb panics on it, Clone materializes a
// writable heap copy, and Close releases the mapping.
type Graph struct {
	n      int
	edges  []Edge  // one record per undirected edge, U < V
	arcOff []int32 // CSR row offsets: arcs of u are arcs[arcOff[u]:arcOff[u+1]]
	arcs   []Arc   // CSR arc array, grouped by source vertex, 2|E| entries

	readonly bool      // true for mapped views: SetProb must not touch the pages
	backing  io.Closer // the file mapping behind a mapped view, nil otherwise
}

func pairKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// New constructs a graph with n vertices and the given edges. Endpoints are
// normalized; duplicate edges or invalid endpoints/probabilities return an
// error. Probabilities must lie in (0, 1].
func New(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.P); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// MustNew is like New but panics on error. It is intended for tests and
// package-level example graphs.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Builder incrementally assembles a Graph, validating each edge as it is
// added. Its duplicate check keeps a pair set while building; the finished
// Graph does not inherit it.
type Builder struct {
	n     int
	edges []Edge
	index map[uint64]int
	err   error
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, index: make(map[uint64]int)}
}

// AddEdge appends the undirected edge (u, v) with probability p.
func (b *Builder) AddEdge(u, v int, p float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("ugraph: edge (%d,%d) endpoint out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("ugraph: self-loop at vertex %d", u)
	}
	if !(p > 0 && p <= 1) {
		return fmt.Errorf("ugraph: edge (%d,%d) probability %v outside (0,1]", u, v, p)
	}
	k := pairKey(u, v)
	if _, dup := b.index[k]; dup {
		return fmt.Errorf("ugraph: duplicate edge (%d,%d)", u, v)
	}
	if u > v {
		u, v = v, u
	}
	b.index[k] = len(b.edges)
	b.edges = append(b.edges, Edge{U: u, V: v, P: p})
	return nil
}

// Graph finalizes the builder. The builder must not be reused afterwards.
func (b *Builder) Graph() *Graph {
	g := &Graph{n: b.n, edges: b.edges}
	b.index = nil
	g.buildAdjacency()
	return g
}

// buildAdjacency constructs the CSR arrays with a counting sort over the
// edge list. Arcs of each vertex appear in ascending edge-id order, matching
// the insertion order of the previous [][]Arc representation.
func (g *Graph) buildAdjacency() {
	g.arcOff = make([]int32, g.n+1)
	for _, e := range g.edges {
		g.arcOff[e.U+1]++
		g.arcOff[e.V+1]++
	}
	for u := 0; u < g.n; u++ {
		g.arcOff[u+1] += g.arcOff[u]
	}
	g.arcs = make([]Arc, 2*len(g.edges))
	next := make([]int32, g.n)
	copy(next, g.arcOff[:g.n])
	for id, e := range g.edges {
		g.arcs[next[e.U]] = Arc{To: e.V, ID: id}
		next[e.U]++
		g.arcs[next[e.V]] = Arc{To: e.U, ID: id}
		next[e.V]++
	}
}

// NumVertices reports |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given identifier.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns the graph's edge slice. The slice is owned by the graph and
// must not be modified; use SetProb to change probabilities.
func (g *Graph) Edges() []Edge { return g.edges }

// Prob returns the existence probability of edge id.
func (g *Graph) Prob(id int) float64 { return g.edges[id].P }

// SetProb overwrites the probability of edge id. Unlike construction-time
// validation, p = 0 is allowed here: sparsification algorithms drive edge
// probabilities to zero before discarding them.
func (g *Graph) SetProb(id int, p float64) {
	if g.readonly {
		panic("ugraph: SetProb on a read-only mapped graph (Clone it first)")
	}
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("ugraph: SetProb(%d, %v) outside [0,1]", id, p))
	}
	g.edges[id].P = p
}

// EdgeID returns the identifier of edge (u, v) and whether it exists;
// endpoint order does not matter. It scans the CSR row of the endpoint with
// the lower degree, so it costs O(min(deg u, deg v)) and keeps no index.
// Out-of-range vertices and u == v report (-1, false).
func (g *Graph) EdgeID(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return -1, false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	for _, a := range g.Neighbors(u) {
		if a.To == v {
			return a.ID, true
		}
	}
	return -1, false
}

// ReadOnly reports whether the graph is an immutable view (SetProb
// panics). Graphs returned by OpenMapped are read-only.
func (g *Graph) ReadOnly() bool { return g.readonly }

// Mapped reports whether the graph's CSR arrays alias a file mapping.
func (g *Graph) Mapped() bool { return g.backing != nil }

// Close releases the file mapping behind a graph opened with OpenMapped;
// it is a no-op for heap-resident graphs. The graph and every slice
// obtained from its accessors are invalid afterwards.
func (g *Graph) Close() error {
	if g.backing == nil {
		return nil
	}
	b := g.backing
	g.backing = nil
	g.edges, g.arcOff, g.arcs = nil, nil, nil
	g.n = 0
	return b.Close()
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeID(u, v)
	return ok
}

// Neighbors returns the adjacency list of u as a view into the CSR arc
// array. The slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []Arc { return g.arcs[g.arcOff[u]:g.arcOff[u+1]] }

// Degree reports the number of edges incident to u (structural degree, not
// expected degree).
func (g *Graph) Degree(u int) int { return int(g.arcOff[u+1] - g.arcOff[u]) }

// ArcOffsets returns the CSR row-offset table: the arcs of vertex u occupy
// Arcs()[ArcOffsets()[u]:ArcOffsets()[u+1]]. The slice has length |V|+1, is
// owned by the graph and must not be modified.
func (g *Graph) ArcOffsets() []int32 { return g.arcOff }

// Arcs returns the flat CSR arc array (2|E| entries, grouped by source
// vertex in ascending edge-id order). The slice is owned by the graph and
// must not be modified.
func (g *Graph) Arcs() []Arc { return g.arcs }

// ExpectedDegree returns the expected degree of u: the sum of the
// probabilities of its incident edges. This equals the expected cut size of
// the singleton set {u}.
func (g *Graph) ExpectedDegree(u int) float64 {
	var d float64
	for _, a := range g.Neighbors(u) {
		d += g.edges[a.ID].P
	}
	return d
}

// ExpectedDegrees returns the expected degree of every vertex.
func (g *Graph) ExpectedDegrees() []float64 {
	d := make([]float64, g.n)
	for _, e := range g.edges {
		d[e.U] += e.P
		d[e.V] += e.P
	}
	return d
}

// TotalProb returns Σ_e p(e), the expected number of edges of a possible
// world.
func (g *Graph) TotalProb() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.P
	}
	return s
}

// MeanProb returns the average edge probability E[p_e], or 0 for an empty
// edge set.
func (g *Graph) MeanProb() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	return g.TotalProb() / float64(len(g.edges))
}

// Clone returns a deep, writable heap copy of the graph (including of a
// read-only mapped view).
func (g *Graph) Clone() *Graph {
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	c := &Graph{n: g.n, edges: edges}
	c.buildAdjacency()
	return c
}

// Equal reports whether g and h have identical vertex counts and edge sets
// (including probabilities, compared exactly).
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || len(g.edges) != len(h.edges) {
		return false
	}
	for i := range g.edges {
		if g.edges[i] != h.edges[i] {
			return false
		}
	}
	return true
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("ugraph.Graph{V: %d, E: %d, E[p]: %.4f}", g.n, len(g.edges), g.MeanProb())
}

// SortedEdgeIDsByProb returns edge identifiers ordered by descending
// probability, breaking ties by identifier for determinism.
func (g *Graph) SortedEdgeIDsByProb() []int {
	ids := make([]int, len(g.edges))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := g.edges[ids[a]], g.edges[ids[b]]
		if ea.P != eb.P {
			return ea.P > eb.P
		}
		return ids[a] < ids[b]
	})
	return ids
}
