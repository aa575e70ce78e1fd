// Package core implements the paper's uncertain-graph sparsification
// framework: Backbone Graph Initialization (Algorithm 1), Gradient Descent
// Backbone (Algorithm 2), Expectation-Maximization Degree (Algorithm 3), the
// optimal LP probability assignment (Theorem 1), and the k-cut update rules
// (Equations 13–16).
package core

import (
	"math"
	"math/rand"

	"ugs/internal/ugraph"
)

// Discrepancy selects which discrepancy a sparsifier minimizes.
type Discrepancy int

const (
	// Absolute minimizes δA(u) = d_u(G) − d_u(G'), emphasizing
	// high-degree vertices.
	Absolute Discrepancy = iota
	// Relative minimizes δR(u) = δA(u) / d_u(G), treating all degrees
	// equally.
	Relative
)

// String implements fmt.Stringer.
func (d Discrepancy) String() string {
	switch d {
	case Absolute:
		return "absolute"
	case Relative:
		return "relative"
	}
	return "unknown"
}

// tracker maintains the sparsifier's incremental state over the original
// graph's edge identifiers: current probabilities (0 for edges outside the
// backbone), current expected degrees, the global missing probability mass
// Σ_e (p_G(e) − p_cur(e)) needed by the k-cut rules, and the D1 objective
// under both discrepancy types, all updated in O(1) per probability change.
type tracker struct {
	g          *ugraph.Graph
	n          int       // |V|
	eu, ev     []int32   // edge endpoints, flattened for cache density
	origP      []float64 // p_G(e), the original probabilities
	origDeg    []float64 // d_u(G)
	invSq      []float64 // 1/d_u(G)², 0 for isolated vertices (δR weights)
	curDeg     []float64 // d_u(G') under current probabilities
	cur        []float64 // current probability per original edge id
	inBackbone []bool
	nBackbone  int     // backbone cardinality (swaps keep it constant)
	missing    float64 // Σ_e p_G(e) − p_cur(e) over all original edges

	d1Abs, d1Rel float64 // incrementally maintained Σ_u δ²(u) per objective
}

func newTracker(g *ugraph.Graph, backbone []int) *tracker {
	n, m := g.NumVertices(), g.NumEdges()
	t := &tracker{
		g:          g,
		n:          n,
		eu:         make([]int32, m),
		ev:         make([]int32, m),
		origP:      make([]float64, m),
		origDeg:    g.ExpectedDegrees(),
		invSq:      make([]float64, n),
		curDeg:     make([]float64, n),
		cur:        make([]float64, m),
		inBackbone: make([]bool, m),
		nBackbone:  len(backbone),
		missing:    g.TotalProb(),
	}
	for id, e := range g.Edges() {
		t.eu[id], t.ev[id] = int32(e.U), int32(e.V)
		t.origP[id] = e.P
	}
	// All probability mass starts missing: D1 = Σ_u d_u(G)² (δR ≡ 1).
	for u, d := range t.origDeg {
		t.d1Abs += d * d
		if d > 0 {
			t.d1Rel++
			t.invSq[u] = 1 / (d * d)
		}
	}
	for _, id := range backbone {
		t.inBackbone[id] = true
		t.setProb(id, t.origP[id])
	}
	return t
}

// setProb changes the current probability of edge id, updating degrees, the
// missing-mass accumulator and both D1 objectives, all in O(1).
func (t *tracker) setProb(id int, p float64) {
	dp := p - t.cur[id]
	if dp == 0 {
		return
	}
	u, v := int(t.eu[id]), int(t.ev[id])
	dAu := t.origDeg[u] - t.curDeg[u]
	dAv := t.origDeg[v] - t.curDeg[v]
	nu, nv := dAu-dp, dAv-dp
	su := nu*nu - dAu*dAu
	sv := nv*nv - dAv*dAv
	t.d1Abs += su + sv
	t.d1Rel += su*t.invSq[u] + sv*t.invSq[v]
	t.curDeg[u] += dp
	t.curDeg[v] += dp
	t.missing -= dp
	t.cur[id] = p
}

// deltaA returns the absolute degree discrepancy of u under the current
// probabilities.
func (t *tracker) deltaA(u int) float64 { return t.origDeg[u] - t.curDeg[u] }

// delta returns the discrepancy of u of the requested type. For vertices
// isolated in G the relative discrepancy is defined as 0 (they have no
// incident probability mass to preserve).
func (t *tracker) delta(u int, dt Discrepancy) float64 {
	dA := t.deltaA(u)
	if dt == Relative {
		if t.origDeg[u] == 0 {
			return 0
		}
		return dA / t.origDeg[u]
	}
	return dA
}

// pi returns the π(u) normalizer of Equation (7): 1 for absolute
// discrepancy, C_G(u) (the expected degree in G) for relative.
func (t *tracker) pi(u int, dt Discrepancy) float64 {
	if dt == Relative {
		if d := t.origDeg[u]; d > 0 {
			return d
		}
	}
	return 1
}

// cachedD1 returns the incrementally maintained D1 = Σ_u δ²(u). It is O(1);
// use objectiveD1 for an exact rescan that also resyncs the accumulators.
func (t *tracker) cachedD1(dt Discrepancy) float64 {
	if dt == Relative {
		return t.d1Rel
	}
	return t.d1Abs
}

// objectiveD1 evaluates D1 = Σ_u δ²(u) exactly by rescanning every vertex,
// and resyncs both incremental accumulators to the exact values, bounding
// the float drift of the O(1) updates. Called at convergence decisions; the
// per-update bookkeeping is cachedD1.
func (t *tracker) objectiveD1(dt Discrepancy) float64 {
	var abs, rel float64
	for u := 0; u < t.g.NumVertices(); u++ {
		dA := t.origDeg[u] - t.curDeg[u]
		abs += dA * dA
		if o := t.origDeg[u]; o > 0 {
			r := dA / o
			rel += r * r
		}
	}
	t.d1Abs, t.d1Rel = abs, rel
	return t.cachedD1(dt)
}

// missingAround returns Δ̂(e) of Equation (13): the probability deficit
// p_G(e1) − p̂(e1) summed over ALL original edges e1 with neither endpoint
// in {u0, v0}; eliminated edges contribute their full probability (p̂ = 0),
// exactly as a k-cut's discrepancy counts them. Edges incident to either
// endpoint contribute δA(u0) + δA(v0), with the doubly counted edge e added
// back.
//
// Note that the Δ̂ weight in Equation (14) decays as Θ(1/n), so on very
// small dense graphs the rule is dominated by the global deficit and can
// saturate probabilities; this is inherent to the published rule, not an
// implementation artifact.
func (t *tracker) missingAround(id int) float64 {
	own := t.origP[id] - t.cur[id]
	return t.missing - t.deltaA(int(t.eu[id])) - t.deltaA(int(t.ev[id])) + own
}

// finalize materializes the sparsified uncertain graph from the current
// backbone membership and probabilities.
func (t *tracker) finalize() (*ugraph.Graph, error) {
	ids := make([]int, 0, t.nBackbone)
	for id, in := range t.inBackbone {
		if in {
			ids = append(ids, id)
		}
	}
	sub, err := t.g.EdgeSubgraph(ids)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		sub.SetProb(i, t.cur[id])
	}
	return sub, nil
}

// DegreeDiscrepancies returns δ(u) for every vertex, comparing the expected
// degrees of sparse against those of orig. Both graphs must share the vertex
// set. Used by the evaluation harness.
func DegreeDiscrepancies(orig, sparse *ugraph.Graph, dt Discrepancy) []float64 {
	d0 := orig.ExpectedDegrees()
	d1 := sparse.ExpectedDegrees()
	out := make([]float64, len(d0))
	for u := range d0 {
		delta := d0[u] - d1[u]
		if dt == Relative {
			if d0[u] == 0 {
				delta = 0
			} else {
				delta /= d0[u]
			}
		}
		out[u] = delta
	}
	return out
}

// MAEDegreeDiscrepancy returns the mean absolute error of the degree
// discrepancy over all vertices (the metric of Table 2 and Figure 6).
func MAEDegreeDiscrepancy(orig, sparse *ugraph.Graph, dt Discrepancy) float64 {
	ds := DegreeDiscrepancies(orig, sparse, dt)
	var sum float64
	for _, d := range ds {
		sum += math.Abs(d)
	}
	return sum / float64(len(ds))
}

// ExpectedCut returns the expected cut size of the vertex set S (given as a
// membership mask) in g: the sum of probabilities of edges with exactly one
// endpoint in S (Definition 1). The cost is O(|E|); when S itself is at
// hand and small, ExpectedCutOf is cheaper.
func ExpectedCut(g *ugraph.Graph, inS []bool) float64 {
	var c float64
	for _, e := range g.Edges() {
		if inS[e.U] != inS[e.V] {
			c += e.P
		}
	}
	return c
}

// ExpectedCutOf returns the expected cut size of the vertex set S, given
// both as an explicit vertex list and as its membership mask (inS[v] must be
// true exactly for v ∈ S). It scans only the adjacency of S — O(Σ_{v∈S}
// deg v) instead of O(|E|) — which is what makes sampled small-k cut
// evaluation cheap.
func ExpectedCutOf(g *ugraph.Graph, s []int, inS []bool) float64 {
	var c float64
	for _, u := range s {
		for _, a := range g.Neighbors(u) {
			if !inS[a.To] {
				c += g.Prob(a.ID)
			}
		}
	}
	return c
}

// MAECutDiscrepancy estimates the mean absolute cut discrepancy between orig
// and sparse by sampling, for each k = 1..maxK, cutsPerK uniformly random
// vertex sets of cardinality k (the protocol of Figure 4(a)). The discrepancy
// of each sampled cut is |C_G(S) − C_G'(S)|; the result is the grand mean.
//
// Each set is drawn by a partial Fisher–Yates shuffle over a persistent
// permutation buffer (k swaps and k RNG draws per cut, not a full
// rng.Perm(n)), and both cuts are evaluated over the adjacency of S only.
// The sampled-set sequence is deterministic for a fixed seed.
func MAECutDiscrepancy(orig, sparse *ugraph.Graph, maxK, cutsPerK int, rng *rand.Rand) float64 {
	n := orig.NumVertices()
	if maxK > n {
		maxK = n
	}
	inS := make([]bool, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var sum float64
	var count int
	for k := 1; k <= maxK; k++ {
		for c := 0; c < cutsPerK; c++ {
			// Partial Fisher–Yates: after k swaps, perm[:k] is a uniform
			// random k-subset of the vertices.
			for i := 0; i < k; i++ {
				j := i + rng.Intn(n-i)
				perm[i], perm[j] = perm[j], perm[i]
			}
			s := perm[:k]
			for _, v := range s {
				inS[v] = true
			}
			d := ExpectedCutOf(orig, s, inS) - ExpectedCutOf(sparse, s, inS)
			sum += math.Abs(d)
			count++
			for _, v := range s {
				inS[v] = false
			}
		}
	}
	return sum / float64(count)
}
