package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"ugs/internal/ugraph"
)

// DynOptions configures a Dynamic sparsifier. Only the degree-preserving
// methods are supported (MethodGDB and MethodEMD, both at k = 1): Repair
// re-runs the k = 1 degree rule.
type DynOptions struct {
	// Method is MethodGDB (default) or MethodEMD.
	Method Method
	// Discrepancy selects the δA or δR objective. Default Absolute.
	Discrepancy Discrepancy
	// Backbone selects the initial backbone construction. Default
	// BackboneSpanning.
	Backbone Backbone
	// H, Tau and MaxIters tune the initial optimization exactly as in
	// Options (MaxIters bounds GDB sweeps or EMD rounds). Zero values
	// select the usual defaults.
	H        float64
	Tau      float64
	MaxIters int
	// RepairSweeps bounds the sweeps one Repair call runs — the
	// bounded-work-per-update knob of the dynamic sparsifier. Each sweep
	// visits the whole backbone, so a repair's sweep work is at most
	// RepairSweeps × |backbone| whatever the batch size. Default 8.
	RepairSweeps int
	// Seed drives the initial backbone randomization.
	Seed int64
	// BGI tunes the spanning backbone construction.
	BGI BGIOptions
}

func (o *DynOptions) defaults() {
	if o.RepairSweeps == 0 {
		o.RepairSweeps = 8
	}
}

// Dynamic is an incrementally repairable sparsifier: it owns the current
// base graph, the backbone membership and the D1 tracker of its last
// optimization, and updates all three under streaming edge-edit batches
// without re-running from scratch.
//
// The dynamic pipeline is deterministic replay semantics: the state after any
// sequence of edit batches is a pure function of (initial graph, DynOptions,
// the ordered batches). Repair reproduces — bit for bit — what a from-scratch
// rebuild of the same pipeline state would compute: rebuild the post-edit
// graph, carry each surviving edge's current probability, apply the same
// backbone maintenance rule, build a fresh tracker and run the same capped
// sweeps. The differential suite in repair_test.go enforces exactly that
// equivalence. Repair is therefore a bounded-work maintenance step, not
// a full re-optimization; when edits have drifted the graph far from the
// state the initial backbone was built for, a fresh sparsification remains
// the quality-recovery path.
//
// Dynamic is not safe for concurrent use.
type Dynamic struct {
	opts     DynOptions
	alpha    float64
	g        *ugraph.Graph
	t        *tracker
	backbone []int // always sorted ascending; the sweep order of repairs
}

// RepairStats reports one Repair call.
type RepairStats struct {
	// Edits is the batch size applied.
	Edits int
	// Structural reports whether the batch changed the edge set.
	Structural bool
	// BackboneAdded and BackboneRemoved count membership maintenance: edges
	// pulled in to refill the α·|E| budget and edges evicted over it (a
	// deleted backbone edge leaves implicitly and is not counted).
	BackboneAdded, BackboneRemoved int
	// DirtyVertices counts vertices whose discrepancy state the batch
	// changed. A change is any difference in the bits of the vertex's
	// expected degree in G or G', so a vertex whose degree sums round
	// differently in the resync's summation order counts even if no edit
	// touched it.
	DirtyVertices int
	// Sweeps and EdgeVisits report the bounded re-optimization actually
	// performed: Sweeps ≤ DynOptions.RepairSweeps full sweeps of the
	// backbone, so EdgeVisits = Sweeps × |backbone|.
	Sweeps, EdgeVisits int
	// ObjectiveD1 is the exact objective after the repair.
	ObjectiveD1 float64
}

// NewDynamic builds the initial sparsified state: backbone construction plus
// a full GDB or EMD optimization, with the tracker kept for later repairs.
//
// The backbone is sorted ascending before optimizing, giving the dynamic
// pipeline a canonical sweep order that backbone maintenance preserves across
// repairs; initial results can therefore differ (in float ulps) from a plain
// Sparsify call, which sweeps in construction order.
func NewDynamic(ctx context.Context, g *ugraph.Graph, alpha float64, opts DynOptions) (*Dynamic, error) {
	opts.defaults()
	if opts.Method != MethodGDB && opts.Method != MethodEMD {
		return nil, fmt.Errorf("core: dynamic sparsification supports gdb and emd only (got %v)", opts.Method)
	}
	backbone, err := BuildBackbone(g, alpha, Options{Backbone: opts.Backbone, Seed: opts.Seed, BGI: opts.BGI})
	if err != nil {
		return nil, err
	}
	sort.Ints(backbone)
	t := newTracker(g, backbone)
	switch opts.Method {
	case MethodGDB:
		gOpts := GDBOptions{Discrepancy: opts.Discrepancy, K: 1, H: opts.H, Tau: opts.Tau, MaxIters: opts.MaxIters}
		gOpts.defaults(g.NumVertices())
		if _, err := gdbSweeps(ctx, t, backbone, gOpts); err != nil {
			return nil, err
		}
	case MethodEMD:
		eOpts := EMDOptions{Discrepancy: opts.Discrepancy, H: opts.H, Tau: opts.Tau, MaxRounds: opts.MaxIters}
		eOpts.defaults(g.NumVertices())
		if _, err := emdRun(ctx, t, &backbone, eOpts); err != nil {
			return nil, err
		}
		// ePhase rebuilds the list ascending each round, but a zero-round
		// run (MaxRounds exhausted immediately) keeps the input order; keep
		// the canonical order unconditionally.
		sort.Ints(backbone)
	}
	return &Dynamic{opts: opts, alpha: alpha, g: g, t: t, backbone: backbone}, nil
}

// Graph returns the current (post-edit) base graph. Callers must not mutate
// it.
func (d *Dynamic) Graph() *ugraph.Graph { return d.g }

// Backbone returns a copy of the current backbone edge ids (ascending, in
// the current graph's id space).
func (d *Dynamic) Backbone() []int { return append([]int(nil), d.backbone...) }

// Prob returns the current sparsified probability of edge id (0 outside the
// backbone).
func (d *Dynamic) Prob(id int) float64 { return d.t.cur[id] }

// ObjectiveD1 returns the exact current objective.
func (d *Dynamic) ObjectiveD1() float64 { return d.t.objectiveD1(d.opts.Discrepancy) }

// Sparsified materializes the current sparsified uncertain graph.
func (d *Dynamic) Sparsified() (*ugraph.Graph, error) { return d.t.finalize() }

// Repair applies one edit batch to the base graph and restores the
// sparsified state with bounded work: carry per-edge state across the edit,
// maintain the backbone budget deterministically, resync the accumulators
// of the tracker, and re-run up to RepairSweeps sweeps of the backbone from
// the existing probabilities. The batch is atomic — a validation error
// leaves the state untouched.
//
// ctx is checked once, before the batch is applied: a context that is
// already done returns its error with the state untouched. Once the batch
// is applied, the sweeps (at most RepairSweeps) run to completion
// regardless of ctx, so a Repair never returns with its batch half
// applied.
func (d *Dynamic) Repair(ctx context.Context, edits []ugraph.EdgeEdit) (*RepairStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := ugraph.ApplyEdits(d.g, edits)
	if err != nil {
		return nil, err
	}
	stats := &RepairStats{Edits: len(edits), Structural: res.Structural}
	t := d.t
	if res.Structural {
		d.remap(res)
	} else {
		// Reweight-only: ids are stable, only the target probabilities moved.
		for id, e := range res.Graph.Edges() {
			t.origP[id] = e.P
		}
	}
	d.g = res.Graph
	t.g = res.Graph

	stats.BackboneAdded, stats.BackboneRemoved = d.maintainBackbone()
	stats.DirtyVertices = t.resyncAfterEdits()

	sOpts := GDBOptions{Discrepancy: d.opts.Discrepancy, K: 1, H: d.opts.H, Tau: d.opts.Tau,
		MaxIters: d.opts.RepairSweeps}
	sOpts.defaults(d.g.NumVertices())
	sOpts.MaxIters = d.opts.RepairSweeps // defaults() must not widen the cap
	run, err := gdbSweeps(context.WithoutCancel(ctx), t, d.backbone, sOpts)
	if err != nil {
		return nil, err
	}
	stats.Sweeps, stats.EdgeVisits, stats.ObjectiveD1 = run.Iterations, run.EdgeVisits, run.ObjectiveD1
	return stats, nil
}

// remap carries the tracker's per-edge arrays into the post-edit id space,
// compacting them in place: surviving edges keep their probability and
// membership; inserted edges start outside the backbone. In-place
// compaction is safe because it is monotone — no survivor's new id exceeds
// its old one, so each slot is read before any later survivor overwrites
// it.
func (d *Dynamic) remap(res *ugraph.EditResult) {
	t := d.t
	edges := res.Graph.Edges()
	nBackbone := 0
	for old, id := range res.OldToNew {
		if id < 0 {
			continue
		}
		e := edges[id]
		t.eu[id], t.ev[id], t.origP[id] = int32(e.U), int32(e.V), e.P
		t.cur[id], t.inBackbone[id] = t.cur[old], t.inBackbone[old]
		if t.inBackbone[id] {
			nBackbone++
		}
	}
	m, kept := len(edges), len(edges)-len(res.InsertedIDs)
	t.eu, t.ev = resize(t.eu, kept, m), resize(t.ev, kept, m)
	t.origP, t.cur = resize(t.origP, kept, m), resize(t.cur, kept, m)
	t.inBackbone = resize(t.inBackbone, kept, m)
	for _, id := range res.InsertedIDs {
		e := edges[id]
		t.eu[id], t.ev[id], t.origP[id] = int32(e.U), int32(e.V), e.P
		t.cur[id], t.inBackbone[id] = 0, false
	}
	t.nBackbone = nBackbone
}

// resize returns s[:kept] extended to length m, reallocating only when m
// exceeds its capacity. Entries past kept are unspecified.
func resize[T any](s []T, kept, m int) []T {
	return slices.Grow(s[:kept], m-kept)[:m]
}

// maintainBackbone restores the α·|E| edge budget after an edit batch with a
// deterministic, history-independent rule: deleted members are already gone;
// a deficit is refilled from non-members in descending probability (ties to
// the lower id), each entering at its graph probability; a surplus evicts
// members in ascending probability (ties to the higher id). Membership is
// otherwise stable — reweights and budget-neutral batches cause no churn.
// Probabilities are written directly (no incremental bookkeeping): the
// subsequent resyncAfterEdits rebuilds every accumulator from scratch, so
// repaired numeric state is bit-identical to a fresh tracker's.
func (d *Dynamic) maintainBackbone() (added, removed int) {
	t := d.t
	m := d.g.NumEdges()
	target := TargetEdges(d.g, d.alpha)
	if target < 1 {
		target = 1
	}
	if target > m {
		target = m
	}
	switch {
	case t.nBackbone < target:
		for _, id := range selectEdges(t.origP, t.inBackbone, false, target-t.nBackbone) {
			t.inBackbone[id] = true
			t.cur[id] = t.origP[id]
			added++
		}
		t.nBackbone = target
	case t.nBackbone > target:
		for _, id := range selectEdges(t.origP, t.inBackbone, true, t.nBackbone-target) {
			t.inBackbone[id] = false
			t.cur[id] = 0
			removed++
		}
		t.nBackbone = target
	}
	// Rebuild the canonical ascending sweep order from membership.
	d.backbone = d.backbone[:0]
	for id := 0; id < m; id++ {
		if t.inBackbone[id] {
			d.backbone = append(d.backbone, id)
		}
	}
	return added, removed
}

// selectEdges returns the k edges with inBackbone[id] == members that rank
// first: by descending p (ties to the lower id) when refilling non-members,
// by ascending p (ties to the higher id) when evicting members. It makes one
// pass over the edges and keeps the k best so far in a heap whose root is
// the worst of them, so a new edge costs one comparison unless it displaces
// the root. The order of the returned ids is unspecified.
func selectEdges(p []float64, inBackbone []bool, members bool, k int) []int {
	// first reports whether edge a ranks ahead of edge b.
	first := func(a, b int) bool {
		if p[a] != p[b] {
			return (p[a] > p[b]) != members
		}
		return (a < b) != members
	}
	h := make([]int, 0, k)
	// down restores the heap below position i: no parent ranks ahead of
	// its children.
	down := func(i int) {
		for {
			worst, l := i, 2*i+1
			if l < k && first(h[worst], h[l]) {
				worst = l
			}
			if r := l + 1; r < k && first(h[worst], h[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	for id, in := range inBackbone {
		switch {
		case in != members:
		case len(h) < k:
			if h = append(h, id); len(h) == k {
				for i := k/2 - 1; i >= 0; i-- {
					down(i)
				}
			}
		case first(id, h[0]):
			h[0] = id
			down(0)
		}
	}
	return h
}

// resyncAfterEdits rebuilds every numeric accumulator from scratch and
// returns the number of vertices whose expected degree in G or G' changed
// in any bit. It is the keystone of the repair ≡ from-scratch guarantee.
// Incremental patching (origDeg[u] += Δp and friends) would leave
// accumulators ulps away from a fresh tracker's, and an ulp is enough to
// flip a discrete branch (the entropy cap, the [0,1] clamp) into a
// macroscopically different probability sequence. Instead every accumulator
// is recomputed with the exact float expressions, in the exact order, that
// building a fresh tracker over the post-edit graph and replaying the carried
// probabilities (ascending id, via setProb from zero) would use — so the
// repaired tracker and a from-scratch one agree on every bit.
func (t *tracker) resyncAfterEdits() int {
	n := t.n
	newOrig := t.g.ExpectedDegrees()
	newCur := make([]float64, n)
	var missing float64
	for id := range t.cur {
		if c := t.cur[id]; c != 0 {
			newCur[t.eu[id]] += c
			newCur[t.ev[id]] += c
		}
		missing += t.origP[id] - t.cur[id]
	}
	dirty := 0
	for u := 0; u < n; u++ {
		if newOrig[u] != t.origDeg[u] || newCur[u] != t.curDeg[u] {
			dirty++
		}
	}
	t.origDeg, t.curDeg = newOrig, newCur
	for u := 0; u < n; u++ {
		t.invSq[u] = 0
		if d := t.origDeg[u]; d > 0 {
			t.invSq[u] = 1 / (d * d)
		}
	}
	t.missing = missing
	t.objectiveD1(Absolute) // exact-resync both D1 accumulators
	return dirty
}
