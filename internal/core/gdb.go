package core

import (
	"context"
	"math"

	"ugs/internal/ugraph"
)

// GDBOptions tunes Gradient Descent Backbone (Algorithm 2).
type GDBOptions struct {
	// Discrepancy selects the δA or δR objective. Default Absolute.
	Discrepancy Discrepancy
	// K is the cut order to preserve: 1 preserves expected degrees
	// (Equation 9), values in [2, n) preserve expected k-cuts
	// (Equation 14), and KAll applies the k = n redistribution rule
	// (Equation 16). Default 1.
	K int
	// H ∈ [0, 1] is the entropy parameter: when the optimal step would
	// increase an edge's entropy, only the fraction H of the step is
	// applied. Default 0.05 (the paper's recommended balanced setting).
	H float64
	// Tau is the convergence threshold on the improvement of the
	// objective D1 between iterations. Default 1e-9·|V|.
	Tau float64
	// MaxIters bounds the number of full sweeps. Default 200.
	MaxIters int
	// Progress, when non-nil, receives a RunStats snapshot after every
	// completed sweep.
	Progress func(RunStats)
}

func (o *GDBOptions) defaults(n int) {
	if o.K == 0 {
		o.K = 1
	}
	if o.H == 0 {
		o.H = 0.05
	}
	if o.Tau == 0 {
		o.Tau = 1e-9 * float64(n)
	}
	if o.MaxIters == 0 {
		o.MaxIters = 200
	}
}

// hExplicitZero lets callers request a true h = 0 (discard any
// entropy-increasing step), which the zero-value default of GDBOptions.H
// would otherwise turn into 0.05.
const hExplicitZero = -1

func effectiveH(h float64) float64 {
	if h == hExplicitZero {
		return 0
	}
	return h
}

// GDB runs Gradient Descent Backbone over the given backbone edge set of g
// and returns the sparsified uncertain graph together with run statistics.
// The backbone structure is not modified; only edge probabilities are.
// Cancelling ctx aborts between sweeps and returns the context's error.
func GDB(ctx context.Context, g *ugraph.Graph, backbone []int, opts GDBOptions) (*ugraph.Graph, *RunStats, error) {
	opts.defaults(g.NumVertices())
	t := newTracker(g, backbone)
	stats, err := gdbSweeps(ctx, t, backbone, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := t.finalize()
	if err != nil {
		return nil, nil, err
	}
	return out, &stats, nil
}

// RunStats reports a sparsifier run. It is the uniform statistics type of
// every method behind the ugs registry; fields not produced by a method are
// left at zero.
type RunStats struct {
	// Iterations counts the method's outer loop: GDB sweeps, EMD rounds,
	// LP pivots and bound flips, NI calibration reruns, or SS spanner
	// constructions.
	Iterations int
	// ObjectiveD1 is the final D1 = Σ_u δ²(u) (GDB, EMD, LP).
	ObjectiveD1 float64
	// Swaps is the total number of E-phase edge swaps (EMD only).
	Swaps int
	// Epsilon is the final calibrated sampling parameter ε (NI only).
	Epsilon float64
	// StretchT is the final stretch parameter t, for a (2t−1)-spanner
	// (SS only).
	StretchT int
	// AuxEdges counts the edges selected before budget truncation and
	// Bernoulli fill-up: NI-core selections or raw spanner edges
	// (NI and SS only).
	AuxEdges int
	// EdgeVisits counts the edge-update steps computed across GDB sweeps
	// (including EMD's M-phases). Every sweep visits every backbone edge,
	// so for GDB it is Iterations × |backbone|.
	EdgeVisits int
}

// gdbSweeps is the iterative core of Algorithm 2, shared with EMD's M-phase
// and with the Dynamic's initial optimization and repairs. It mutates the
// tracker in place. The context is checked once per sweep.
//
// Each sweep visits every backbone edge in order and applies the Equation
// (9) update: take the optimal step, clamp to [0, 1], and if the (unclamped)
// assignment would increase the edge's entropy apply only the fraction h of
// the step. The degree rule (k = 1) runs in degreeSweep, a loop with no call
// and no data-dependent branch; the k ≠ 1 cut rules run in cutSweep. Both
// compute exactly what tracker.setProb would.
//
// Convergence is decided on the O(1) incrementally-maintained objective;
// when it signals convergence (and on MaxIters exhaustion) the objective is
// recomputed exactly, bounding float drift in the reported D1.
func gdbSweeps(ctx context.Context, t *tracker, backbone []int, opts GDBOptions) (RunStats, error) {
	h := effectiveH(opts.H)
	dt, k := opts.Discrepancy, opts.K
	degreeRule := k == 1 && t.n > 1 // tracker.step's k = 1 case
	prev := t.objectiveD1(dt)
	iters := 0
	converged := false
	for iters < opts.MaxIters {
		if err := ctx.Err(); err != nil {
			return RunStats{}, err
		}
		if degreeRule {
			t.degreeSweep(backbone, dt == Relative, h)
		} else {
			t.cutSweep(backbone, dt, k, h)
		}
		iters++
		d1 := t.cachedD1(dt)
		if opts.Progress != nil {
			opts.Progress(RunStats{Iterations: iters, ObjectiveD1: d1, EdgeVisits: iters * len(backbone)})
		}
		if math.Abs(prev-d1) <= opts.Tau {
			prev = t.objectiveD1(dt)
			converged = true
			break
		}
		prev = d1
	}
	if !converged {
		prev = t.objectiveD1(dt)
	}
	return RunStats{Iterations: iters, ObjectiveD1: prev, EdgeVisits: iters * len(backbone)}, nil
}

// degreeSweep runs one sweep of the k = 1 degree rule (Equation 8, with the
// π weights of δR when rel) over the backbone. The step and the bookkeeping
// of tracker.setProb use the same expressions in the same order, and the
// tracker's scalar accumulators live in locals for the length of the sweep.
//
// The clamp and the entropy cap pick among four candidate values, and which
// one wins flips from edge to edge, so the choice is made with integer
// conditional moves over the candidates' bits instead of branches. An edge
// whose probability does not move still runs the bookkeeping: its increments
// are exact zeros, except the δR one where a vertex's 1/d² overflowed to
// +Inf (0·Inf is NaN), so that increment is selected to zero instead. The
// result is bit-identical to skipping the edge.
func (t *tracker) degreeSweep(backbone []int, rel bool, h float64) {
	// Resliced to shared lengths, each group of arrays needs one bounds
	// check per index.
	cur := t.cur
	eu, ev := t.eu[:len(cur)], t.ev[:len(cur)]
	origDeg := t.origDeg
	curDeg, invSq := t.curDeg[:len(origDeg)], t.invSq[:len(origDeg)]
	const one = 0x3ff0000000000000 // math.Float64bits(1)
	d1Abs, d1Rel, missing := t.d1Abs, t.d1Rel, t.missing
	for _, id := range backbone {
		old := cur[id]
		u, v := eu[id], ev[id]
		ou, ov := origDeg[u], origDeg[v]
		dAu := ou - curDeg[u]
		dAv := ov - curDeg[v]
		var stp float64
		if rel {
			// tracker.pi: C_G(u), or 1 for a vertex isolated in G.
			pub, pvb := math.Float64bits(ou), math.Float64bits(ov)
			if !(ou > 0) {
				pub = one
			}
			if !(ov > 0) {
				pvb = one
			}
			pu, pv := math.Float64frombits(pub), math.Float64frombits(pvb)
			stp = (pv*dAu + pu*dAv) / (pu + pv)
		} else {
			stp = (dAu + dAv) * 0.5
		}
		p := old + stp
		capped := math.Float64bits(old + h*stp)
		pb := math.Float64bits(p)
		// ugraph.EntropyGreater(p, old): |p−½| < |old−½|, compared on the
		// bits with the sign shifted out, which order non-negative floats.
		if math.Float64bits(p-0.5)<<1 < math.Float64bits(old-0.5)<<1 {
			pb = capped
		}
		if p > 1 {
			pb = one
		}
		if p < 0 {
			pb = 0
		}
		p = math.Float64frombits(pb)
		// tracker.setProb, inlined.
		dp := p - old
		nu, nv := dAu-dp, dAv-dp
		su := nu*nu - dAu*dAu
		sv := nv*nv - dAv*dAv
		d1Abs += su + sv
		rb := math.Float64bits(su*invSq[u] + sv*invSq[v])
		if math.Float64bits(dp)<<1 == 0 { // dp is ±0
			rb = 0
		}
		d1Rel += math.Float64frombits(rb)
		curDeg[u] += dp
		curDeg[v] += dp
		missing -= dp
		cur[id] = p
	}
	t.d1Abs, t.d1Rel, t.missing = d1Abs, d1Rel, missing
}

// cutSweep runs one sweep of a k ≠ 1 cut rule (or of the degree rule on a
// graph of at most one vertex) over the backbone. The rules read the
// missing mass through tracker.step, so it is stored back before each call.
func (t *tracker) cutSweep(backbone []int, dt Discrepancy, k int, h float64) {
	eu, ev, cur := t.eu, t.ev, t.cur
	origDeg, curDeg, invSq := t.origDeg, t.curDeg, t.invSq
	d1Abs, d1Rel, missing := t.d1Abs, t.d1Rel, t.missing
	for _, id := range backbone {
		u, v := int(eu[id]), int(ev[id])
		old := cur[id]
		dAu := origDeg[u] - curDeg[u]
		dAv := origDeg[v] - curDeg[v]
		t.missing = missing
		stp := t.step(id, dt, k)
		p := old + stp
		switch {
		case p < 0:
			p = 0
		case p > 1:
			p = 1
		case ugraph.EntropyGreater(p, old):
			p = old + h*stp
		}
		if p == old {
			continue
		}
		// tracker.setProb, inlined.
		dp := p - old
		nu, nv := dAu-dp, dAv-dp
		su := nu*nu - dAu*dAu
		sv := nv*nv - dAv*dAv
		d1Abs += su + sv
		d1Rel += su*invSq[u] + sv*invSq[v]
		curDeg[u] += dp
		curDeg[v] += dp
		missing -= dp
		cur[id] = p
	}
	t.d1Abs, t.d1Rel, t.missing = d1Abs, d1Rel, missing
}
