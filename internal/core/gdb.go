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
	// DenseSweeps disables the epoch-stamped worklist: every sweep
	// recomputes the update step of every backbone edge, as the
	// pre-worklist implementation did. The worklist skips exactly the
	// edges whose recomputed step would be a no-op (neither endpoint
	// discrepancy — nor, for k ≠ 1, the global missing mass — changed
	// since the edge's last visit), so both modes produce identical
	// output; the flag exists for ablation benchmarks and equivalence
	// tests.
	DenseSweeps bool
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
	// EdgeVisits counts the edge-update steps actually computed across
	// GDB sweeps (including EMD's M-phases). With the epoch worklist this
	// is at most — and usually far below — Iterations × |backbone|, which
	// is what dense sweeps perform.
	EdgeVisits int
}

// gdbSweeps is the iterative core of Algorithm 2, shared with EMD's M-phase.
// It mutates the tracker in place. The context is checked once per sweep.
//
// Each sweep walks the backbone in order but, unless DenseSweeps is set,
// only recomputes the update step of edges that are dirty: an edge is clean
// when neither endpoint's discrepancy (nor, for k ≠ 1 rules that read the
// global missing mass, any probability at all) has changed since the edge
// was last visited. A clean edge would recompute the exact same step it
// already applied to a fixed point — a guaranteed no-op — so skipping it
// leaves the probability sequence, and therefore the output, bit-identical
// to a dense sweep. Visit stamps are taken *before* the update, so an edge
// whose own update changes its endpoints re-dirties itself (the entropy cap
// and the [0,1] clamp make single visits partial steps).
//
// Each visit applies the Equation (9) update: take the optimal step, clamp
// to [0, 1], and if the (unclamped) assignment would increase the edge's
// entropy apply only the fraction h of the step. The step (for k = 1) and
// the bookkeeping of tracker.setProb are inlined with the same expressions
// in the same order, and the tracker's scalar accumulators live in locals
// for the length of a sweep, so the loop computes exactly what setProb
// would. The k ≠ 1 rules read the missing mass through tracker.step, so it
// is stored back before each such call.
//
// Convergence is decided on the O(1) incrementally-maintained objective;
// when it signals convergence (and on MaxIters exhaustion) the objective is
// recomputed exactly, bounding float drift in the reported D1.
func gdbSweeps(ctx context.Context, t *tracker, backbone []int, opts GDBOptions) (RunStats, error) {
	h := effectiveH(opts.H)
	dt, k := opts.Discrepancy, opts.K
	degreeRule := k == 1 && t.n > 1 // tracker.step's k = 1 case
	// The k ≠ 1 update rules read the global missing mass, so any
	// probability change anywhere dirties every edge.
	globalMass := k != 1
	dense := opts.DenseSweeps
	eu, ev, cur, visitStamp := t.eu, t.ev, t.cur, t.visitStamp
	origDeg, curDeg, invSq, vertStamp := t.origDeg, t.curDeg, t.invSq, t.vertStamp
	prev := t.objectiveD1(dt)
	iters, visits := 0, 0
	converged := false
	for iters < opts.MaxIters {
		if err := ctx.Err(); err != nil {
			return RunStats{}, err
		}
		d1Abs, d1Rel, missing := t.d1Abs, t.d1Rel, t.missing
		tick, massStamp := t.tick, t.massStamp
		for _, id := range backbone {
			u, v := int(eu[id]), int(ev[id])
			if !dense {
				stamp := vertStamp[u]
				if s := vertStamp[v]; s > stamp {
					stamp = s
				}
				if globalMass && massStamp > stamp {
					stamp = massStamp
				}
				if stamp <= visitStamp[id] {
					continue
				}
				visitStamp[id] = tick
			}
			visits++
			old := cur[id]
			dAu := origDeg[u] - curDeg[u]
			dAv := origDeg[v] - curDeg[v]
			var stp float64
			switch {
			case !degreeRule:
				t.missing = missing
				stp = t.step(id, dt, k)
			case dt == Absolute:
				stp = (dAu + dAv) * 0.5
			default:
				pu, pv := t.pi(u, dt), t.pi(v, dt)
				stp = (pv*dAu + pu*dAv) / (pu + pv)
			}
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
			tick++
			vertStamp[u] = tick
			vertStamp[v] = tick
			massStamp = tick
		}
		t.d1Abs, t.d1Rel, t.missing = d1Abs, d1Rel, missing
		t.tick, t.massStamp = tick, massStamp
		iters++
		d1 := t.cachedD1(dt)
		if opts.Progress != nil {
			opts.Progress(RunStats{Iterations: iters, ObjectiveD1: d1, EdgeVisits: visits})
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
	return RunStats{Iterations: iters, ObjectiveD1: prev, EdgeVisits: visits}, nil
}
