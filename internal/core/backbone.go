package core

import (
	"fmt"
	"math"
	"math/rand"

	"ugs/internal/mst"
	"ugs/internal/ugraph"
)

// Backbone selects how the initial unweighted backbone graph G_b is built.
type Backbone int

const (
	// BackboneSpanning is Algorithm 1 (BGI): iterated maximum spanning
	// forests up to α'|E| edges, then Bernoulli sampling of the remainder.
	// It guarantees a connected backbone whenever the input graph is
	// connected and α|E| ≥ |V|−1.
	BackboneSpanning Backbone = iota
	// BackboneRandom samples edges in random order, keeping edge e with
	// probability p_e, until α|E| edges are collected. It does not
	// guarantee connectivity (the paper's "random backbone", no -t suffix).
	BackboneRandom
)

// String implements fmt.Stringer.
func (b Backbone) String() string {
	switch b {
	case BackboneSpanning:
		return "spanning"
	case BackboneRandom:
		return "random"
	}
	return "unknown"
}

// TargetEdges returns |E'| = round(α·|E|), the sparsified edge budget.
func TargetEdges(g *ugraph.Graph, alpha float64) int {
	return int(math.Round(alpha * float64(g.NumEdges())))
}

// validateAlpha checks the sparsification ratio against the graph.
func validateAlpha(g *ugraph.Graph, alpha float64) (int, error) {
	if !(alpha > 0 && alpha < 1) {
		return 0, fmt.Errorf("core: sparsification ratio α = %v outside (0,1)", alpha)
	}
	target := TargetEdges(g, alpha)
	if target < 1 {
		return 0, fmt.Errorf("core: α = %v yields an empty sparsified graph (|E| = %d)", alpha, g.NumEdges())
	}
	if target >= g.NumEdges() {
		return 0, fmt.Errorf("core: α = %v yields no sparsification (target %d of %d edges)", alpha, target, g.NumEdges())
	}
	return target, nil
}

// Bounds of BGI's spanning phase (Algorithm 1).
const (
	// spanningFrac bounds the spanning phase at spanningFrac·α·|E| edges
	// (the paper's 0.5·α).
	spanningFrac = 0.5
	// maxForests bounds the number of maximum spanning forests peeled off
	// (the paper uses the first six).
	maxForests = 6
)

// SpanningBackbone implements Algorithm 1 (BGI). It returns the edge
// identifiers of the backbone: maximum spanning forests are peeled off the
// graph until min(spanningFrac·α·|E|, maxForests forests) edges are
// collected, and the remaining budget is filled by Bernoulli sampling the
// leftover edges with their probabilities.
func SpanningBackbone(g *ugraph.Graph, alpha float64, rng *rand.Rand) ([]int, error) {
	target, err := validateAlpha(g, alpha)
	if err != nil {
		return nil, err
	}

	spanCap := int(math.Floor(spanningFrac * float64(target)))
	backbone := make([]int, 0, target)
	in := make([]bool, g.NumEdges())

	dec := mst.NewForestDecomposer(g)
	for f := 0; f < maxForests && len(backbone) < spanCap; f++ {
		forest := dec.NextForest()
		if forest == nil {
			break
		}
		for _, id := range forest {
			if len(backbone) >= target {
				break
			}
			backbone = append(backbone, id)
			in[id] = true
		}
	}

	fillBernoulli(g, &backbone, in, target, rng)
	return backbone, nil
}

// RandomBackbone samples edges of g in random order, keeping each edge with
// its probability, until α|E| edges are collected.
func RandomBackbone(g *ugraph.Graph, alpha float64, rng *rand.Rand) ([]int, error) {
	target, err := validateAlpha(g, alpha)
	if err != nil {
		return nil, err
	}
	backbone := make([]int, 0, target)
	in := make([]bool, g.NumEdges())
	fillBernoulli(g, &backbone, in, target, rng)
	return backbone, nil
}

// fillBernoulli repeatedly passes over the edges not yet selected, in random
// order, keeping edge e with probability p_e, until the backbone reaches
// target edges. Because every probability is positive the process
// terminates with certainty; a pass that selects nothing (possible only with
// pathologically small probabilities) falls back to accepting the highest-
// probability remaining edges.
func fillBernoulli(g *ugraph.Graph, backbone *[]int, in []bool, target int, rng *rand.Rand) {
	for len(*backbone) < target {
		progressed := false
		for _, id := range rng.Perm(g.NumEdges()) {
			if len(*backbone) >= target {
				return
			}
			if in[id] {
				continue
			}
			if rng.Float64() < g.Prob(id) {
				in[id] = true
				*backbone = append(*backbone, id)
				progressed = true
			}
		}
		if !progressed {
			for _, id := range g.SortedEdgeIDsByProb() {
				if len(*backbone) >= target {
					return
				}
				if !in[id] {
					in[id] = true
					*backbone = append(*backbone, id)
				}
			}
		}
	}
}
