package core

import (
	"context"
	"math"

	"ugs/internal/ds"
	"ugs/internal/ugraph"
)

// EMDOptions tunes Expectation-Maximization Degree (Algorithm 3).
//
// EMD preserves expected degrees only (k = 1): the edge-gain definition of
// Equation (10) would require enumerating all k-cuts containing an edge for
// k > 1, which is intractable (Section 5).
type EMDOptions struct {
	// Discrepancy selects the δA or δR objective. Default Absolute.
	Discrepancy Discrepancy
	// H is the entropy parameter of the M-phase's GDB sweeps (see
	// GDBOptions.H). Default 0.05. The E-phase does not apply it: an edge
	// swapped in enters at its Equation (9) optimum.
	H float64
	// Tau is the convergence threshold on the improvement of D1 between
	// EM rounds. Default 1e-9·|V|.
	Tau float64
	// MaxRounds bounds the number of E+M rounds. Default 30.
	MaxRounds int
	// NaiveEPhase switches the E-phase to the paper's "intuitive
	// approach": instead of consulting the vertex heap Hv, every
	// candidate edge in E\E_b is scanned for the globally best gain.
	// It is asymptotically slower — Θ((1−α)|E|) work per backbone edge
	// versus O(deg(v_H) + log|V|) — and exists for the heap-ablation
	// benchmark (Section 4.3 cost analysis).
	NaiveEPhase bool
	// Progress, when non-nil, receives a RunStats snapshot after every
	// completed E+M round.
	Progress func(RunStats)
}

func (o *EMDOptions) defaults(n int) {
	if o.H == 0 {
		o.H = 0.05
	}
	if o.Tau == 0 {
		o.Tau = 1e-9 * float64(n)
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 30
	}
}

// mPhaseSweeps bounds the GDB sweeps inside each EMD M-phase.
const mPhaseSweeps = 50

// EMD runs Expectation-Maximization Degree over the given backbone of g:
// each round swaps backbone edges for higher-gain edges from E\E_b (E-phase,
// driven by the vertex max-heap Hv) and then re-optimizes probabilities with
// GDB (M-phase). It returns the sparsified graph and run statistics.
// Cancelling ctx aborts between rounds (and between the M-phase's inner
// sweeps) and returns the context's error.
func EMD(ctx context.Context, g *ugraph.Graph, backbone []int, opts EMDOptions) (*ugraph.Graph, *RunStats, error) {
	opts.defaults(g.NumVertices())
	t := newTracker(g, backbone)
	bb := append([]int(nil), backbone...)
	stats, err := emdRun(ctx, t, &bb, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := t.finalize()
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// emdRun is the E+M optimization loop over an existing tracker and backbone
// id list, both mutated in place. Split out of EMD so the dynamic sparsifier
// can run it and keep the tracker (and the final backbone) for later repairs.
// opts must already have defaults applied.
//
// Each round's M-phase continues from the probabilities the round found:
// the edges the E-phase kept carry the last M-phase's values, and the edges
// it swapped in their Equation (9) optimum. The rounds therefore descend on
// D1 until the Tau test stops them.
func emdRun(ctx context.Context, t *tracker, bb *[]int, opts EMDOptions) (*RunStats, error) {
	mOpts := GDBOptions{
		Discrepancy: opts.Discrepancy,
		K:           1,
		H:           opts.H,
		Tau:         opts.Tau,
		MaxIters:    mPhaseSweeps,
	}
	mOpts.defaults(t.n)

	var st *ePhaseState
	if !opts.NaiveEPhase {
		st = newEPhaseState(t, opts.Discrepancy)
	}
	stats := &RunStats{}
	prev := t.objectiveD1(opts.Discrepancy)
	for stats.Iterations < opts.MaxRounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.NaiveEPhase {
			stats.Swaps += ePhaseNaive(t, bb, opts.Discrepancy)
		} else {
			stats.Swaps += ePhase(t, bb, opts.Discrepancy, st)
		}
		mStats, err := gdbSweeps(ctx, t, *bb, mOpts)
		if err != nil {
			return nil, err
		}
		stats.EdgeVisits += mStats.EdgeVisits
		stats.Iterations++
		d1 := t.cachedD1(opts.Discrepancy)
		if opts.Progress != nil {
			opts.Progress(RunStats{Iterations: stats.Iterations, ObjectiveD1: d1, Swaps: stats.Swaps, EdgeVisits: stats.EdgeVisits})
		}
		if math.Abs(prev-d1) <= opts.Tau {
			break
		}
		prev = d1
	}
	stats.ObjectiveD1 = t.objectiveD1(opts.Discrepancy)
	return stats, nil
}

// ePhaseState carries the E-phase's data structures across EMD rounds so
// they are built once per run instead of once per round: the vertex max-heap
// Hv and the backbone snapshot scratch buffer.
type ePhaseState struct {
	hv       *ds.IndexedMaxHeap
	snapshot []int
}

// newEPhaseState builds the vertex heap over all n vertices with their
// current |δ| priorities.
func newEPhaseState(t *tracker, dt Discrepancy) *ePhaseState {
	n := t.g.NumVertices()
	st := &ePhaseState{hv: ds.NewIndexedMaxHeap(n)}
	for u := 0; u < n; u++ {
		st.hv.Push(u, math.Abs(t.delta(u, dt)))
	}
	return st
}

// resync refreshes the heap priority of every vertex after the M-phase
// changed many discrepancies: O(n) comparisons plus O(log n) per changed
// priority, instead of rebuilding the heap from scratch. Update leaves the
// heap untouched when a priority is unchanged, so the layout, and with it
// the tie-breaking of Top, is what an update of the changed vertices alone
// would leave.
func (st *ePhaseState) resync(t *tracker, dt Discrepancy) {
	for u := 0; u < t.n; u++ {
		st.hv.Update(u, math.Abs(t.delta(u, dt)))
	}
}

// ePhase is the E-phase of Algorithm 3 (lines 6–20): for every backbone
// edge, tentatively remove it, and re-insert either it or the best-gain edge
// incident to the vertex of maximum |δ| (the top of the heap Hv), at the
// probability candidate scored it with. It updates the tracker and the
// backbone id list in place and reports the number of actual swaps.
func ePhase(t *tracker, bb *[]int, dt Discrepancy, st *ePhaseState) int {
	g := t.g
	st.resync(t, dt)
	hv := st.hv
	refresh := func(u, v int) {
		hv.Update(u, math.Abs(t.delta(u, dt)))
		hv.Update(v, math.Abs(t.delta(v, dt)))
	}

	swaps := 0
	snapshot := append(st.snapshot[:0], *bb...)
	for _, id := range snapshot {
		if !t.inBackbone[id] {
			continue // already swapped back in and processed
		}
		t.setProb(id, 0)
		t.inBackbone[id] = false
		refresh(int(t.eu[id]), int(t.ev[id]))

		vH, _ := hv.Top()

		bestID := id
		bestP, bestGain := t.candidate(id, dt)
		for _, a := range g.Neighbors(vH) {
			if t.inBackbone[a.ID] || a.ID == id {
				continue
			}
			p, gain := t.candidate(a.ID, dt)
			if gain > bestGain {
				bestID, bestP, bestGain = a.ID, p, gain
			}
		}

		t.setProb(bestID, bestP)
		t.inBackbone[bestID] = true
		refresh(int(t.eu[bestID]), int(t.ev[bestID]))
		if bestID != id {
			swaps++
		}
	}
	st.snapshot = snapshot

	// Rebuild the backbone id list from membership (ascending, hence
	// deterministic), reusing the caller's slice.
	*bb = (*bb)[:0]
	for id, in := range t.inBackbone {
		if in {
			*bb = append(*bb, id)
		}
	}
	return swaps
}

// ePhaseNaive is the E-phase without the vertex heap: every non-backbone
// edge competes for each slot, taking the globally maximal gain. Quadratic
// in the edge count; benchmark ablation only.
func ePhaseNaive(t *tracker, bb *[]int, dt Discrepancy) int {
	g := t.g
	swaps := 0
	snapshot := append([]int(nil), *bb...)
	for _, id := range snapshot {
		if !t.inBackbone[id] {
			continue
		}
		t.setProb(id, 0)
		t.inBackbone[id] = false

		bestID := id
		bestP, bestGain := t.candidate(id, dt)
		for cand := 0; cand < g.NumEdges(); cand++ {
			if t.inBackbone[cand] || cand == id {
				continue
			}
			p, gain := t.candidate(cand, dt)
			if gain > bestGain {
				bestID, bestP, bestGain = cand, p, gain
			}
		}

		t.setProb(bestID, bestP)
		t.inBackbone[bestID] = true
		if bestID != id {
			swaps++
		}
	}
	*bb = (*bb)[:0]
	for id, in := range t.inBackbone {
		if in {
			*bb = append(*bb, id)
		}
	}
	return swaps
}

// candidate evaluates an absent edge (current probability 0) as an insertion
// candidate: its Equation (9) optimum from p̂ = 0, clamped to [0, 1], and the
// resulting gain of Equation (10),
//
//	g(e) = δ̂²(u0)|₀ − δ̂²(u0)|_p + δ̂²(v0)|₀ − δ̂²(v0)|_p.
//
// No entropy cap applies: from p̂ = 0 any probability strictly between 0 and
// 1 raises the edge's entropy, so a cap would score, and insert, every
// candidate at a fraction of its optimum.
func (t *tracker) candidate(id int, dt Discrepancy) (p, gain float64) {
	u, v := int(t.eu[id]), int(t.ev[id])
	pu, pv := t.pi(u, dt), t.pi(v, dt)
	p = (pv*t.deltaA(u) + pu*t.deltaA(v)) / (pu + pv)
	switch {
	case p < 0:
		p = 0
	case p > 1:
		p = 1
	}
	du0, dv0 := t.delta(u, dt), t.delta(v, dt)
	duP := (t.deltaA(u) - p) / pu
	dvP := (t.deltaA(v) - p) / pv
	if dt == Absolute {
		duP, dvP = t.deltaA(u)-p, t.deltaA(v)-p
	}
	gain = du0*du0 - duP*duP + dv0*dv0 - dvP*dvP
	return p, gain
}
