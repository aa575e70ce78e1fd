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
// sweeps. It gets there with bookkeeping proportional to the batch, the
// edits' endpoints and the backbone, and only the exact missing-mass and
// objective rescans still pass over every edge or vertex. The differential
// suite in repair_test.go enforces the equivalence. Repair is therefore a
// bounded-work maintenance step, not a full re-optimization; when edits
// have drifted the graph far from the state the initial backbone was built
// for, a fresh sparsification remains the quality-recovery path.
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
// repairs. Initial results therefore differ from a plain Sparsify call, which
// sweeps in construction order, and not only in ulps: Gauss–Seidel sweeps
// depend on their order, and on the 10k- and 100k-edge benchmark graphs
// (α = 0.3) 200 GDB sweeps of the same backbone end 3.5–4.4× lower in D1 in
// ascending order.
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
// sparsified state with bounded work: carry per-edge state across the edit
// (remap for a structural batch, then the reweighted edges' new target
// probabilities), maintain the backbone budget deterministically, resync
// the tracker's accumulators, and re-run up to RepairSweeps sweeps of the
// backbone from the existing probabilities. The batch is atomic — a
// validation error leaves the state untouched.
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
		d.remap(res, edits)
	}
	for _, ed := range edits {
		if ed.Op == ugraph.EditReweight {
			id, _ := res.Graph.EdgeID(ed.U, ed.V)
			t.origP[id] = ed.P
		}
	}
	d.g = res.Graph
	t.g = res.Graph

	stats.BackboneAdded, stats.BackboneRemoved = d.maintainBackbone()
	stats.DirtyVertices = t.resyncAfterEdits(d.backbone, edits)

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

// remap carries the tracker's per-edge arrays and the backbone list into
// the post-edit id space of a structural batch: surviving edges keep their
// endpoints, probabilities and membership (Repair then writes the new
// target probability of each reweighted one), and inserted edges start
// outside the backbone. ApplyEdits keeps survivors in their relative order,
// so each array is compacted in place by moving the runs between the
// batch's deleted ids (found with EdgeID on the pre-edit graph) down over
// the gaps; the work outside those moves is proportional to the batch and
// the backbone. The backbone list is mapped through OldToNew, which is
// monotone, so it stays sorted.
func (d *Dynamic) remap(res *ugraph.EditResult, edits []ugraph.EdgeEdit) {
	t := d.t
	var deleted []int
	for _, ed := range edits {
		if ed.Op == ugraph.EditDelete {
			id, _ := d.g.EdgeID(ed.U, ed.V)
			deleted = append(deleted, id)
			if t.inBackbone[id] {
				t.nBackbone--
			}
		}
	}
	slices.Sort(deleted)
	edges := res.Graph.Edges()
	m := len(edges)
	t.eu, t.ev = compact(t.eu, deleted, m), compact(t.ev, deleted, m)
	t.origP, t.cur = compact(t.origP, deleted, m), compact(t.cur, deleted, m)
	t.inBackbone = compact(t.inBackbone, deleted, m)
	for _, id := range res.InsertedIDs {
		e := edges[id]
		t.eu[id], t.ev[id], t.origP[id] = int32(e.U), int32(e.V), e.P
		t.cur[id], t.inBackbone[id] = 0, false
	}

	bb := d.backbone[:0]
	for _, id := range d.backbone {
		if nid := res.OldToNew[id]; nid >= 0 {
			bb = append(bb, int(nid))
		}
	}
	d.backbone = bb
}

// compact removes the entries at the ascending indices deleted from s in
// place, keeping the others in order, and returns the result extended to
// length m, reallocating only when m exceeds its capacity. Entries past the
// kept ones are unspecified.
func compact[T any](s []T, deleted []int, m int) []T {
	w := len(s)
	if len(deleted) > 0 {
		w = deleted[0]
		for i, del := range deleted {
			next := len(s)
			if i+1 < len(deleted) {
				next = deleted[i+1]
			}
			w += copy(s[w:], s[del+1:next])
		}
	}
	return slices.Grow(s[:w], m-w)[:m]
}

// maintainBackbone restores the α·|E| edge budget after an edit batch with a
// deterministic, history-independent rule: deleted members are already gone;
// a deficit is refilled from non-members in descending probability (ties to
// the lower id), each entering at its graph probability; a surplus evicts
// members in ascending probability (ties to the higher id). Membership is
// otherwise stable — reweights and budget-neutral batches cause no churn.
// Refills are sorted and merged into the ascending backbone list and
// evictions filtered out of it; only a budget that moved costs selectEdges'
// pass over the edges. Probabilities are written directly (no incremental
// bookkeeping): the subsequent resyncAfterEdits rebuilds the accumulators
// they feed, so repaired numeric state is bit-identical to a fresh
// tracker's.
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
		refill := selectEdges(t.origP, t.inBackbone, false, target-t.nBackbone)
		for _, id := range refill {
			t.inBackbone[id] = true
			t.cur[id] = t.origP[id]
		}
		slices.Sort(refill)
		d.backbone = mergeSorted(d.backbone, refill)
		added = len(refill)
	case t.nBackbone > target:
		evict := selectEdges(t.origP, t.inBackbone, true, t.nBackbone-target)
		for _, id := range evict {
			t.inBackbone[id] = false
			t.cur[id] = 0
		}
		d.backbone = slices.DeleteFunc(d.backbone, func(id int) bool { return !t.inBackbone[id] })
		removed = len(evict)
	}
	t.nBackbone = target
	return added, removed
}

// mergeSorted merges the ascending ids of src into the ascending list dst,
// which shares no id with it, in place from the back.
func mergeSorted(dst, src []int) []int {
	i, j := len(dst)-1, len(src)-1
	dst = slices.Grow(dst, len(src))[:len(dst)+len(src)]
	for k := len(dst) - 1; j >= 0; k-- {
		if i >= 0 && dst[i] > src[j] {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = src[j]
			j--
		}
	}
	return dst
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

// resyncAfterEdits brings the per-vertex accumulators the degree rule reads
// to the exact bits a fresh tracker over the post-edit graph would hold
// after replaying the carried probabilities (ascending id, via setProb from
// zero), rescans the missing mass and both objectives, and returns the
// number of vertices whose expected degree in G or G' changed in any bit.
// It is the keystone of the repair ≡ from-scratch guarantee.
// Incremental patching (origDeg[u] += Δp and friends) would leave
// accumulators ulps away from a fresh tracker's, and an ulp is enough to
// flip a discrete branch (the entropy cap, the [0,1] clamp) into a
// macroscopically different probability sequence.
//
// d_u(G) and 1/d_u(G)² are recomputed only at the edits' endpoints, each
// once, as the sum over the vertex's CSR row. Rows list arcs in ascending
// edge id, the order ExpectedDegrees adds in, and an edit leaves every other
// vertex's incident edges, their order and their probabilities as they were,
// so every other vertex keeps its bits. d_u(G') is rebuilt by summing the
// current probabilities over the ascending backbone list into a reused
// buffer: non-members carry 0, so it is the sum a scan over every edge
// would give.
func (t *tracker) resyncAfterEdits(backbone []int, edits []ugraph.EdgeEdit) int {
	newCur := t.degBuf
	if len(newCur) != t.n {
		newCur = make([]float64, t.n)
	}
	clear(newCur)
	for _, id := range backbone {
		c := t.cur[id]
		newCur[t.eu[id]] += c
		newCur[t.ev[id]] += c
	}
	dirty := 0
	for u, c := range newCur {
		if c != t.curDeg[u] {
			dirty++
		}
	}
	oldCur := t.curDeg
	t.curDeg, t.degBuf = newCur, oldCur

	ends := make([]int, 0, 2*len(edits))
	for _, ed := range edits {
		ends = append(ends, ed.U, ed.V)
	}
	slices.Sort(ends)
	for _, u := range slices.Compact(ends) {
		d := t.g.ExpectedDegree(u)
		if d != t.origDeg[u] && t.curDeg[u] == oldCur[u] {
			dirty++ // not already counted for its d_u(G')
		}
		t.origDeg[u] = d
		t.invSq[u] = 0
		if d > 0 {
			t.invSq[u] = 1 / (d * d)
		}
	}

	var missing float64
	for id := range t.cur {
		missing += t.origP[id] - t.cur[id]
	}
	t.missing = missing
	t.objectiveD1(Absolute) // exact-resync both D1 accumulators
	return dirty
}
