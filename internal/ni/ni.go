// Package ni adapts the Nagamochi–Ibaraki cut-based deterministic
// sparsifier to uncertain graphs, exactly as the paper's benchmark NI
// (Section 3.2 and Algorithm 4 of the appendix):
//
//  1. Transform probabilities to integer weights w_e = ⌊p_e/p_min⌉ (round to
//     nearest, at least 1), so expected cut sizes are proportional to
//     deterministic cut weights.
//  2. Run the NI core: peel contiguous spanning forests, decrementing edge
//     weights; when an edge's weight is exhausted at forest round r, sample
//     it with probability ℓ_e = min(log|V| / (ε²·r), 1) and, if kept, assign
//     w'_e = w_e/ℓ_e. The round r at which an edge is exhausted is its NI
//     index — a lower bound on its connectivity — so edges in dense regions
//     (large r) are sampled with low probability and compensated with large
//     weights. The peeling depends only on the integer weights, so it runs
//     once per call and records each edge's index in peel order (the NI
//     index is a property of the graph, as in Fung–Harvey); only the
//     sampling depends on ε.
//  3. Calibrate ε so the output has at most α|E| edges (the expected size is
//     only asymptotic), approaching the minimal such ε from below. Each
//     calibration run replays the recorded peel order with its own ε and
//     random stream.
//  4. Fill the remaining budget by Bernoulli sampling of leftover edges with
//     their original probabilities, and transform weights back through
//     p'_e = min(w'_e·p_min, 1).
package ni

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ugs/internal/core"
	"ugs/internal/ds"
	"ugs/internal/ugraph"
)

// Options tunes the NI benchmark sparsifier.
type Options struct {
	// Theta is the multiplicative calibration factor for ε (the paper's
	// "small factor θ"). Default 0.1.
	Theta float64
	// MaxCalibrations bounds calibration reruns. Default 40.
	MaxCalibrations int
	// Seed drives edge sampling.
	Seed int64
	// Progress, when non-nil, receives a RunStats snapshot after every
	// calibration run of the NI core.
	Progress func(core.RunStats)
}

func (o *Options) defaults() {
	if o.Theta == 0 {
		o.Theta = 0.1
	}
	if o.MaxCalibrations == 0 {
		o.MaxCalibrations = 40
	}
}

// Sparsify reduces g to α·|E| edges with the NI benchmark. The returned
// RunStats reports the calibration count (Iterations), the final calibrated
// ε (Epsilon) and the NI-core selections before truncation/fill-up
// (AuxEdges). Cancelling ctx aborts the forest peeling between forest rounds
// and the calibration between runs, and returns the context's error.
func Sparsify(ctx context.Context, g *ugraph.Graph, alpha float64, opts Options) (*ugraph.Graph, *core.RunStats, error) {
	opts.defaults()
	if !(alpha > 0 && alpha < 1) {
		return nil, nil, fmt.Errorf("ni: sparsification ratio α = %v outside (0,1)", alpha)
	}
	target := int(math.Round(alpha * float64(g.NumEdges())))
	if target < 1 || target >= g.NumEdges() {
		return nil, nil, fmt.Errorf("ni: α = %v yields invalid target %d of %d edges", alpha, target, g.NumEdges())
	}

	weights, pmin := intWeights(g)
	order, err := peel(ctx, g, weights)
	if err != nil {
		return nil, nil, err
	}

	n := float64(g.NumVertices())
	logN := math.Log(n)
	eps := math.Sqrt(n * logN / (alpha * float64(g.NumEdges())))
	rng := rand.New(rand.NewSource(opts.Seed))

	// Calibration: find (approximately) the minimal ε whose output does
	// not exceed the edge budget.
	calibrations := 0
	run := func(eps float64) ([]keptEdge, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		kept := sample(order, weights, logN, eps, rand.New(rand.NewSource(rng.Int63())))
		calibrations++
		if opts.Progress != nil {
			opts.Progress(core.RunStats{Iterations: calibrations, Epsilon: eps, AuxEdges: len(kept)})
		}
		return kept, nil
	}
	kept, err := run(eps)
	if err != nil {
		return nil, nil, err
	}
	coreEdges := len(kept)
	if len(kept) > target {
		for len(kept) > target && calibrations < opts.MaxCalibrations {
			eps *= 1 + opts.Theta
			if kept, err = run(eps); err != nil {
				return nil, nil, err
			}
		}
		coreEdges = len(kept)
		if len(kept) > target {
			// Calibration exhausted without fitting the budget; honor it
			// by keeping the largest-weight selections.
			kept = truncate(kept, target)
		}
	} else {
		for calibrations < opts.MaxCalibrations {
			cand := eps / (1 + opts.Theta)
			keptCand, err := run(cand)
			if err != nil {
				return nil, nil, err
			}
			if len(keptCand) > target {
				break
			}
			eps, kept = cand, keptCand
		}
	}

	// Inverse transform with the probability cap at 1, in id order.
	slices.SortFunc(kept, func(a, b keptEdge) int { return cmp.Compare(a.id, b.id) })
	selected := make([]int, 0, target)
	probs := make([]float64, 0, target)
	in := make([]bool, g.NumEdges())
	for _, k := range kept {
		selected = append(selected, k.id)
		probs = append(probs, math.Min(k.w*pmin, 1))
		in[k.id] = true
	}

	// Fill the remaining budget by Bernoulli sampling of leftover edges
	// with their original probabilities.
	for len(selected) < target {
		progressed := false
		for _, id := range rng.Perm(g.NumEdges()) {
			if len(selected) >= target {
				break
			}
			if in[id] {
				continue
			}
			if rng.Float64() < g.Prob(id) {
				in[id] = true
				selected = append(selected, id)
				probs = append(probs, g.Prob(id))
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
					probs = append(probs, g.Prob(id))
				}
			}
		}
	}

	out, err := g.EdgeSubgraph(selected)
	if err != nil {
		return nil, nil, err
	}
	for i := range selected {
		out.SetProb(i, probs[i])
	}
	stats := &core.RunStats{Iterations: calibrations, Epsilon: eps, AuxEdges: coreEdges}
	return out, stats, nil
}

// intWeights is step 1's transform: w_e = ⌊p_e/p_min⌉, at least 1. It also
// returns p_min for the inverse transform.
func intWeights(g *ugraph.Graph) ([]int, float64) {
	pmin := math.Inf(1)
	for _, e := range g.Edges() {
		if e.P < pmin {
			pmin = e.P
		}
	}
	weights := make([]int, g.NumEdges())
	for id, e := range g.Edges() {
		weights[id] = max(int(math.Round(e.P/pmin)), 1)
	}
	return weights, pmin
}

// exhaustion records that edge id's weight ran out in forest round round,
// which is the edge's NI index.
type exhaustion struct {
	id, round int
}

// peel is the forest peeling of Algorithm 4: contiguous spanning forests
// with weight decrements. It returns every edge's exhaustion in peel order,
// which is the order in which Algorithm 4 samples them. Each round offers
// the previous forest's edges that still carry weight first (contiguity),
// then every edge with weight left in ascending id order; an exhausted edge
// leaves that list, so a round walks only edges that still carry weight.
// ctx is checked once per round.
func peel(ctx context.Context, g *ugraph.Graph, weights []int) ([]exhaustion, error) {
	edges := g.Edges()
	live := make([]int32, len(edges))
	for id := range live {
		live[id] = int32(id)
	}
	w := slices.Clone(weights)
	order := make([]exhaustion, 0, len(edges))
	uf := ds.NewUnionFind(g.NumVertices())
	var prevForest, forest []int32
	for r := 1; len(live) > 0; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		uf.Reset()
		forest = forest[:0]
		for _, id := range prevForest {
			if w[id] > 0 && uf.Union(edges[id].U, edges[id].V) {
				forest = append(forest, id)
			}
		}
		for _, id := range live {
			if uf.Union(edges[id].U, edges[id].V) {
				forest = append(forest, id)
			}
		}
		if len(forest) == 0 {
			break // isolated leftovers cannot occur, but guard anyway
		}
		exhausted := len(order)
		for _, id := range forest {
			w[id]--
			if w[id] == 0 {
				order = append(order, exhaustion{int(id), r})
			}
		}
		if len(order) > exhausted {
			live = slices.DeleteFunc(live, func(id int32) bool { return w[id] == 0 })
		}
		prevForest, forest = forest, prevForest
	}
	return order, nil
}

// keptEdge is an edge the NI core selected, with its rescaled weight
// w_e/ℓ_e.
type keptEdge struct {
	id int
	w  float64
}

// sample is Algorithm 4's exhaustion-time sampling for one ε: it walks the
// peel order and keeps an edge exhausted in round r with probability
// ℓ_e = min(logN / (ε²·r), 1), drawing one rng.Float64() per exhausted edge.
func sample(order []exhaustion, weights []int, logN, eps float64, rng *rand.Rand) []keptEdge {
	var kept []keptEdge
	for _, x := range order {
		le := math.Min(logN/(eps*eps*float64(x.round)), 1)
		if rng.Float64() < le {
			kept = append(kept, keptEdge{x.id, float64(weights[x.id]) / le})
		}
	}
	return kept
}

// truncate keeps the target highest-weight selections (lowest id first on
// ties).
func truncate(kept []keptEdge, target int) []keptEdge {
	slices.SortFunc(kept, func(a, b keptEdge) int {
		if c := cmp.Compare(b.w, a.w); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return kept[:target]
}
