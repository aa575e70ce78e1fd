// Package spanner adapts the Baswana–Sen randomized (2t−1)-spanner to
// uncertain graphs, as the paper's benchmark SS (Section 3.2 and Algorithm 5
// of the appendix):
//
//  1. Transform probabilities to weights w_e = −log p_e, so low-weight paths
//     are the most probable paths of the uncertain graph.
//  2. Run Baswana–Sen clustering for t−1 rounds to obtain a (2t−1)-spanner
//     of expected size O(t·n^{1+1/t}).
//  3. Calibrate the integer stretch parameter t so the spanner fits the
//     α|E| edge budget (t can only move in integer steps).
//  4. Fill any remaining budget by Bernoulli sampling of leftover edges.
//
// The spanner keeps the original edge probabilities: unlike the proposed
// methods, SS performs no probability redistribution — which is precisely
// why it underperforms on uncertain graphs (Section 6).
package spanner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ugs/internal/core"
	"ugs/internal/ugraph"
)

// maxT bounds the stretch-parameter search.
const maxT = 32

// Options tunes the SS benchmark sparsifier.
type Options struct {
	// Seed drives cluster sampling and fill-up.
	Seed int64
	// Progress, when non-nil, receives a RunStats snapshot after every
	// spanner construction of the stretch-parameter search.
	Progress func(core.RunStats)
}

// Sparsify reduces g to α·|E| edges with the SS benchmark. The returned
// RunStats reports the spanner constructions of the stretch search
// (Iterations), the final stretch parameter (StretchT) and the raw spanner
// size before truncation/fill-up (AuxEdges). Cancelling ctx aborts between
// spanner constructions and returns the context's error.
func Sparsify(ctx context.Context, g *ugraph.Graph, alpha float64, opts Options) (*ugraph.Graph, *core.RunStats, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, nil, fmt.Errorf("spanner: sparsification ratio α = %v outside (0,1)", alpha)
	}
	m := g.NumEdges()
	target := int(math.Round(alpha * float64(m)))
	if target < 1 || target >= m {
		return nil, nil, fmt.Errorf("spanner: α = %v yields invalid target %d of %d edges", alpha, target, m)
	}

	weights := make([]float64, m)
	for id, e := range g.Edges() {
		weights[id] = -math.Log(e.P)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	n := float64(g.NumVertices())

	// Initial t from α|E| = t·n^{1+1/t}; expected spanner size decreases
	// with t, so search upward from the smallest t whose expected size
	// fits, rerunning while the realized size overshoots. One scratch
	// serves every spanner construction of the search.
	t := 1
	for t < maxT && float64(t)*math.Pow(n, 1+1/float64(t)) > float64(target) {
		t++
	}
	sc := newBSScratch(g.NumVertices(), m)
	var edges []int
	builds := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		edges = baswanaSen(g, weights, t, rand.New(rand.NewSource(rng.Int63())), sc)
		builds++
		if opts.Progress != nil {
			opts.Progress(core.RunStats{Iterations: builds, StretchT: t, AuxEdges: len(edges)})
		}
		if len(edges) <= target || t >= maxT {
			break
		}
		t++
	}
	spannerEdges := len(edges)
	if len(edges) > target {
		// Budget is binding even at maxT: keep the lightest edges (the
		// most probable ones) deterministically.
		sortByWeight(edges, weights)
		edges = edges[:target]
	}

	in := make([]bool, m)
	for _, id := range edges {
		in[id] = true
	}
	selected := append([]int(nil), edges...)
	for len(selected) < target {
		progressed := false
		for _, id := range rng.Perm(m) {
			if len(selected) >= target {
				break
			}
			if in[id] {
				continue
			}
			if rng.Float64() < g.Prob(id) {
				in[id] = true
				selected = append(selected, id)
				progressed = true
			}
		}
		if !progressed {
			for _, id := range g.SortedEdgeIDsByProb() {
				if len(selected) >= target {
					break
				}
				if !in[id] {
					in[id] = true
					selected = append(selected, id)
				}
			}
		}
	}

	sort.Ints(selected)                  // canonical output edge order
	out, err := g.EdgeSubgraph(selected) // keeps original probabilities
	if err != nil {
		return nil, nil, err
	}
	stats := &core.RunStats{Iterations: builds, StretchT: t, AuxEdges: spannerEdges}
	return out, stats, nil
}

// bsScratch holds every buffer one Baswana–Sen construction needs, so the
// stretch-parameter search of Sparsify reuses a single allocation set across
// spanner builds (previously each build allocated per-vertex adjacency maps
// in every clustering round — thousands of allocations per SparsifySS).
//
// The per-vertex "least-weight edge to each adjacent cluster" table is keyed
// by cluster center (0..n-1) for live clusters and by n+v for a retired
// neighbor v, with bestID[key] < 0 meaning absent; touched keys are recorded
// and reset after each vertex, keeping the table warm across rounds.
type bsScratch struct {
	present   []bool
	inSpanner []bool
	spanner   []int
	cluster   []int
	next      []int
	isCenter  []bool
	centers   []int
	sampled   []bool
	bestID    []int32
	bestW     []float64
	touched   []int32
}

func newBSScratch(n, m int) *bsScratch {
	sc := &bsScratch{
		present:   make([]bool, m),
		inSpanner: make([]bool, m),
		spanner:   make([]int, 0, m),
		cluster:   make([]int, n),
		next:      make([]int, n),
		isCenter:  make([]bool, n),
		centers:   make([]int, 0, n),
		sampled:   make([]bool, n),
		bestID:    make([]int32, 2*n),
		bestW:     make([]float64, 2*n),
		touched:   make([]int32, 0, n),
	}
	for i := range sc.bestID {
		sc.bestID[i] = -1
	}
	return sc
}

// BaswanaSen computes a (2t−1)-spanner of g under the given edge weights and
// returns the selected edge identifiers. The expected size is
// O(t·n^{1+1/t}). The algorithm performs t−1 clustering rounds followed by a
// vertex–cluster joining round; t = 1 returns all edges (a 1-spanner).
func BaswanaSen(g *ugraph.Graph, weights []float64, t int, rng *rand.Rand) []int {
	return baswanaSen(g, weights, t, rng, newBSScratch(g.NumVertices(), g.NumEdges()))
}

// baswanaSen is BaswanaSen on caller-provided scratch. The returned slice
// aliases sc.spanner and is invalidated by the next call with the same
// scratch.
func baswanaSen(g *ugraph.Graph, weights []float64, t int, rng *rand.Rand, sc *bsScratch) []int {
	n := g.NumVertices()
	m := g.NumEdges()
	present := sc.present
	inSpanner := sc.inSpanner
	for i := 0; i < m; i++ {
		present[i] = true
		inSpanner[i] = false
	}
	spanner := sc.spanner[:0]
	add := func(id int) {
		if !inSpanner[id] {
			inSpanner[id] = true
			spanner = append(spanner, id)
		}
	}

	// bestOf records edge id as the candidate least-weight edge for key,
	// with the same weight-then-id tie-break the map version used.
	touched := sc.touched[:0]
	bestOf := func(key, id int) {
		switch {
		case sc.bestID[key] < 0:
			touched = append(touched, int32(key))
			sc.bestID[key] = int32(id)
			sc.bestW[key] = weights[id]
		case weights[id] < sc.bestW[key] || (weights[id] == sc.bestW[key] && id < int(sc.bestID[key])):
			sc.bestID[key] = int32(id)
			sc.bestW[key] = weights[id]
		}
	}
	resetTouched := func() {
		for _, key := range touched {
			sc.bestID[key] = -1
		}
		touched = touched[:0]
	}

	// cluster[v] = center of v's cluster, or -1 once v has fallen out of
	// the clustering (its remaining edges were fully resolved).
	cluster := sc.cluster
	for v := range cluster {
		cluster[v] = v
	}
	next := sc.next
	sampleProb := math.Pow(float64(n), -1/float64(t))

	for round := 1; round <= t-1; round++ {
		// Sample cluster centers, drawing in sorted order so results are
		// deterministic for a given rng seed.
		centers := sc.centers[:0]
		for _, c := range cluster {
			if c >= 0 && !sc.isCenter[c] {
				sc.isCenter[c] = true
				centers = append(centers, c)
			}
		}
		sort.Ints(centers)
		for _, c := range centers {
			sc.sampled[c] = rng.Float64() < sampleProb
		}

		for v := range next {
			if cluster[v] >= 0 && sc.sampled[cluster[v]] {
				next[v] = cluster[v] // sampled clusters survive
			} else {
				next[v] = -1
			}
		}

		for u := 0; u < n; u++ {
			if cluster[u] < 0 || sc.sampled[cluster[u]] {
				continue
			}
			// Least-weight edge from u to each adjacent cluster.
			for _, a := range g.Neighbors(u) {
				if !present[a.ID] {
					continue
				}
				c := cluster[a.To]
				if c < 0 || c == cluster[u] {
					continue
				}
				bestOf(c, a.ID)
			}

			// Least-weight edge into a sampled adjacent cluster, if any.
			eStarID, eStarW := -1, math.Inf(1)
			for _, key := range touched {
				c := int(key)
				if b := int(sc.bestID[c]); sc.sampled[c] && (sc.bestW[c] < eStarW || (sc.bestW[c] == eStarW && b < eStarID)) {
					eStarID, eStarW = b, sc.bestW[c]
				}
			}

			if eStarID < 0 {
				// No sampled neighbor: connect to every adjacent cluster
				// and retire u from the clustering.
				for _, key := range touched {
					c := int(key)
					add(int(sc.bestID[c]))
					removeClusterEdges(g, present, cluster, u, c)
				}
			} else {
				add(eStarID)
				joined := cluster[g.Edge(eStarID).Other(u)]
				next[u] = joined
				removeClusterEdges(g, present, cluster, u, joined)
				for _, key := range touched {
					c := int(key)
					if c != joined && sc.bestW[c] < eStarW {
						add(int(sc.bestID[c]))
						removeClusterEdges(g, present, cluster, u, c)
					}
				}
			}
			resetTouched()
		}

		// Reset the per-round center marks before cluster is overwritten.
		for _, c := range centers {
			sc.isCenter[c] = false
			sc.sampled[c] = false
		}
		sc.centers = centers[:0]
		cluster, next = next, cluster
		// Discard intra-cluster edges.
		for id := 0; id < m; id++ {
			if !present[id] {
				continue
			}
			e := g.Edge(id)
			if cluster[e.U] >= 0 && cluster[e.U] == cluster[e.V] {
				present[id] = false
			}
		}
	}

	// Vertex–cluster joining: each vertex keeps its least-weight edge to
	// every adjacent final cluster (and to each retired neighbor, keyed by
	// n + neighbor so retired vertices count individually).
	for u := 0; u < n; u++ {
		for _, a := range g.Neighbors(u) {
			if !present[a.ID] {
				continue
			}
			key := cluster[a.To]
			if key < 0 {
				key = n + a.To
			}
			bestOf(key, a.ID)
		}
		for _, key := range touched {
			add(int(sc.bestID[key]))
		}
		resetTouched()
	}
	sc.touched = touched[:0]
	sc.spanner = spanner
	return spanner
}

// removeClusterEdges discards all present edges between u and the cluster
// with the given center.
func removeClusterEdges(g *ugraph.Graph, present []bool, cluster []int, u, center int) {
	for _, a := range g.Neighbors(u) {
		if present[a.ID] && cluster[a.To] == center {
			present[a.ID] = false
		}
	}
}

func sortByWeight(ids []int, weights []float64) {
	sort.Slice(ids, func(a, b int) bool {
		wa, wb := weights[ids[a]], weights[ids[b]]
		if wa != wb {
			return wa < wb
		}
		return ids[a] < ids[b]
	})
}
