package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ugs/internal/gen"
	"ugs/internal/mc"
	"ugs/internal/queries"
	"ugs/internal/ugraph"
)

// The differential gate of the dynamic sparsifier: after every edit batch,
// the incrementally repaired state must equal — backbone edge set identical,
// probabilities within 1e-9 (bit-equal in practice) — a from-scratch replay
// of the same pipeline state: rebuild the post-edit graph independently,
// carry each surviving edge's probability by endpoint pair, apply the same
// deterministic backbone-maintenance rule, build a fresh tracker and run the
// same capped sweeps. Any bug in Repair's carry of per-edge state across the
// edit, any drift in its accumulator resync, or any divergence in its
// maintenance rule breaks the comparison.

func repairKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

type refEdge struct {
	u, v int
	p    float64
}

// scratchPipeline is the independent from-scratch replica of a Dynamic's
// state. It shares no code with Repair beyond the tracker/sweep primitives
// both are specified against.
type scratchPipeline struct {
	n     int
	alpha float64
	opts  DynOptions
	recs  []refEdge // edge records in graph id order
	inBB  map[uint64]bool
	cur   map[uint64]float64
}

func newScratchPipeline(d *Dynamic) *scratchPipeline {
	g := d.Graph()
	s := &scratchPipeline{
		n:     g.NumVertices(),
		alpha: d.alpha,
		opts:  d.opts, // defaults already applied by NewDynamic
		inBB:  make(map[uint64]bool),
		cur:   make(map[uint64]float64),
	}
	for _, e := range g.Edges() {
		s.recs = append(s.recs, refEdge{e.U, e.V, e.P})
	}
	for _, id := range d.Backbone() {
		e := g.Edge(id)
		k := repairKey(e.U, e.V)
		s.inBB[k] = true
		s.cur[k] = d.Prob(id)
	}
	return s
}

// apply replays one edit batch from scratch and returns the rebuilt graph,
// the ascending backbone ids and the freshly optimized tracker.
func (s *scratchPipeline) apply(tt *testing.T, ctx context.Context, batch []ugraph.EdgeEdit) (*ugraph.Graph, []int, *tracker) {
	tt.Helper()

	// Post-edit edge records: survivors keep their relative order (reweights
	// in place), inserts append in batch order normalized u < v — the same
	// canonical order ApplyEdits documents.
	del := make(map[uint64]bool)
	rew := make(map[uint64]float64)
	var ins []refEdge
	for _, ed := range batch {
		switch ed.Op {
		case ugraph.EditDelete:
			del[repairKey(ed.U, ed.V)] = true
		case ugraph.EditReweight:
			rew[repairKey(ed.U, ed.V)] = ed.P
		case ugraph.EditInsert:
			u, v := ed.U, ed.V
			if u > v {
				u, v = v, u
			}
			ins = append(ins, refEdge{u, v, ed.P})
		}
	}
	recs := s.recs[:0:0]
	for _, r := range s.recs {
		k := repairKey(r.u, r.v)
		if del[k] {
			delete(s.inBB, k)
			delete(s.cur, k)
			continue
		}
		if p, ok := rew[k]; ok {
			r.p = p
		}
		recs = append(recs, r)
	}
	recs = append(recs, ins...)
	s.recs = recs

	b := ugraph.NewBuilder(s.n)
	for _, r := range recs {
		if err := b.AddEdge(r.u, r.v, r.p); err != nil {
			tt.Fatal(err)
		}
	}
	g := b.Graph()

	// Deterministic backbone maintenance, restated independently: refill a
	// deficit from non-members by (p desc, id asc) at graph probability;
	// evict a surplus by (p asc, id desc).
	m := len(recs)
	target := TargetEdges(g, s.alpha)
	if target < 1 {
		target = 1
	}
	if target > m {
		target = m
	}
	switch {
	case len(s.inBB) < target:
		var cand []int
		for id, r := range recs {
			if !s.inBB[repairKey(r.u, r.v)] {
				cand = append(cand, id)
			}
		}
		sort.Slice(cand, func(a, b int) bool {
			pa, pb := recs[cand[a]].p, recs[cand[b]].p
			if pa != pb {
				return pa > pb
			}
			return cand[a] < cand[b]
		})
		for _, id := range cand[:target-len(s.inBB)] {
			k := repairKey(recs[id].u, recs[id].v)
			s.inBB[k] = true
			s.cur[k] = recs[id].p
		}
	case len(s.inBB) > target:
		var members []int
		for id, r := range recs {
			if s.inBB[repairKey(r.u, r.v)] {
				members = append(members, id)
			}
		}
		sort.Slice(members, func(a, b int) bool {
			pa, pb := recs[members[a]].p, recs[members[b]].p
			if pa != pb {
				return pa < pb
			}
			return members[a] > members[b]
		})
		for _, id := range members[:len(members)-target] {
			k := repairKey(recs[id].u, recs[id].v)
			delete(s.inBB, k)
			delete(s.cur, k)
		}
	}

	// Fresh tracker over the rebuilt graph, carried probabilities replayed
	// ascending by id, then the same capped sweeps, so the repaired side's
	// resynced accumulators must prove themselves exact.
	t := newTracker(g, nil)
	var bb []int
	for id := 0; id < m; id++ {
		k := repairKey(recs[id].u, recs[id].v)
		if s.inBB[k] {
			t.inBackbone[id] = true
			t.nBackbone++
			bb = append(bb, id)
		}
		if c := s.cur[k]; c != 0 {
			t.setProb(id, c)
		}
	}
	o := GDBOptions{Discrepancy: s.opts.Discrepancy, K: 1, H: s.opts.H, Tau: s.opts.Tau}
	o.defaults(s.n)
	o.MaxIters = s.opts.RepairSweeps
	if _, err := gdbSweeps(ctx, t, bb, o); err != nil {
		tt.Fatal(err)
	}
	for _, id := range bb {
		s.cur[repairKey(recs[id].u, recs[id].v)] = t.cur[id]
	}
	return g, bb, t
}

// randomBatch draws a valid batch of the given size against the current edge
// records: existing pairs split between delete and reweight, absent pairs
// insert.
func randomBatch(rng *rand.Rand, n int, recs []refEdge, size int) []ugraph.EdgeEdit {
	have := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		have[repairKey(r.u, r.v)] = true
	}
	touched := make(map[uint64]bool, size)
	var batch []ugraph.EdgeEdit
	for len(batch) < size {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || touched[repairKey(u, v)] {
			continue
		}
		touched[repairKey(u, v)] = true
		p := 0.02 + 0.98*rng.Float64()
		switch {
		case !have[repairKey(u, v)]:
			batch = append(batch, ugraph.EdgeEdit{Op: ugraph.EditInsert, U: u, V: v, P: p})
		case rng.Intn(2) == 0:
			batch = append(batch, ugraph.EdgeEdit{Op: ugraph.EditDelete, U: u, V: v})
		default:
			batch = append(batch, ugraph.EdgeEdit{Op: ugraph.EditReweight, U: u, V: v, P: p})
		}
	}
	return batch
}

func dynamicTestGraph(t *testing.T) *ugraph.Graph {
	t.Helper()
	g, err := gen.Social(gen.SocialConfig{N: 160, AvgDegree: 8, MeanProb: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assertRepairedEqualsScratch(t *testing.T, tag string, d *Dynamic, g *ugraph.Graph, bb []int, tr *tracker) {
	t.Helper()
	if !d.Graph().Equal(g) {
		t.Fatalf("%s: repaired base graph diverged from scratch rebuild", tag)
	}
	got := d.Backbone()
	if len(got) != len(bb) {
		t.Fatalf("%s: backbone size %d != scratch %d", tag, len(got), len(bb))
	}
	for i := range got {
		if got[i] != bb[i] {
			t.Fatalf("%s: backbone[%d] = edge %d != scratch edge %d", tag, i, got[i], bb[i])
		}
	}
	for _, id := range bb {
		if diff := math.Abs(d.Prob(id) - tr.cur[id]); diff > 1e-9 {
			e := g.Edge(id)
			t.Fatalf("%s: edge %d (%d-%d): repaired p=%.17g scratch p=%.17g (diff %g)",
				tag, id, e.U, e.V, d.Prob(id), tr.cur[id], diff)
		}
	}
	if dg, ds := d.ObjectiveD1(), tr.objectiveD1(d.opts.Discrepancy); math.Abs(dg-ds) > 1e-9 {
		t.Fatalf("%s: objective %.17g != scratch %.17g", tag, dg, ds)
	}
}

// TestRepairMatchesScratch is the differential suite proper: {gdb, emd} ×
// {Absolute, Relative} × a sequence of randomized edit batches spanning
// sizes 1..64 (inserts, deletes, reweights mixed).
func TestRepairMatchesScratch(t *testing.T) {
	base := dynamicTestGraph(t)
	ctx := context.Background()
	sizes := []int{1, 2, 3, 7, 16, 33, 64, 5, 24, 1}
	for _, method := range []Method{MethodGDB, MethodEMD} {
		for _, dt := range []Discrepancy{Absolute, Relative} {
			t.Run(fmt.Sprintf("%v_%v", method, dt), func(t *testing.T) {
				d, err := NewDynamic(ctx, base, 0.4, DynOptions{
					Method: method, Discrepancy: dt, Seed: 11,
				})
				if err != nil {
					t.Fatal(err)
				}
				ref := newScratchPipeline(d)
				rng := rand.New(rand.NewSource(int64(97 + 13*int(method) + int(dt))))
				for step, size := range sizes {
					batch := randomBatch(rng, ref.n, ref.recs, size)
					if _, err := d.Repair(ctx, batch); err != nil {
						t.Fatalf("batch %d (%d edits): %v", step, size, err)
					}
					g, bb, tr := ref.apply(t, ctx, batch)
					assertRepairedEqualsScratch(t, fmt.Sprintf("batch %d (%d edits)", step, size), d, g, bb, tr)
				}
			})
		}
	}
}

// TestRepairStats sanity-checks the per-call accounting: bounded sweeps, a
// localized dirty region for small batches, and backbone budget maintenance
// under structural churn.
func TestRepairStats(t *testing.T) {
	base := dynamicTestGraph(t)
	ctx := context.Background()
	d, err := NewDynamic(ctx, base, 0.4, DynOptions{Seed: 5, RepairSweeps: 6})
	if err != nil {
		t.Fatal(err)
	}
	e := base.Edge(0)
	st, err := d.Repair(ctx, []ugraph.EdgeEdit{{Op: ugraph.EditReweight, U: e.U, V: e.V, P: 0.999}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Structural {
		t.Error("reweight-only batch reported structural")
	}
	if st.Sweeps > 6 {
		t.Errorf("Sweeps = %d exceeds RepairSweeps", st.Sweeps)
	}
	if st.DirtyVertices < 1 || st.DirtyVertices >= base.NumVertices() {
		t.Errorf("DirtyVertices = %d; want a small nonzero region for a 1-edit batch", st.DirtyVertices)
	}
	// Deleting backbone edges must refill the budget; the invariant target =
	// round(alpha·|E|) holds after every repair.
	var batch []ugraph.EdgeEdit
	for _, id := range d.Backbone()[:8] {
		de := d.Graph().Edge(id)
		batch = append(batch, ugraph.EdgeEdit{Op: ugraph.EditDelete, U: de.U, V: de.V})
	}
	st, err = d.Repair(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Structural {
		t.Error("delete batch not reported structural")
	}
	if st.BackboneAdded == 0 {
		t.Error("deleting backbone edges refilled nothing")
	}
	if want := TargetEdges(d.Graph(), 0.4); len(d.Backbone()) != want {
		t.Errorf("backbone size %d after repair; want %d", len(d.Backbone()), want)
	}
}

// TestRepairRejectsInvalidBatch checks atomicity: a rejected batch leaves the
// dynamic state untouched and fully usable.
func TestRepairRejectsInvalidBatch(t *testing.T) {
	base := dynamicTestGraph(t)
	ctx := context.Background()
	d, err := NewDynamic(ctx, base, 0.4, DynOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := d.ObjectiveD1()
	bbBefore := d.Backbone()
	if _, err := d.Repair(ctx, []ugraph.EdgeEdit{{Op: ugraph.EditInsert, U: 0, V: 0, P: 0.5}}); err == nil {
		t.Fatal("self-loop insert accepted")
	}
	if _, err := d.Repair(ctx, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if d.ObjectiveD1() != before || len(d.Backbone()) != len(bbBefore) {
		t.Fatal("rejected batch mutated dynamic state")
	}
	e := base.Edge(1)
	if _, err := d.Repair(ctx, []ugraph.EdgeEdit{{Op: ugraph.EditReweight, U: e.U, V: e.V, P: 0.5}}); err != nil {
		t.Fatalf("state unusable after rejected batches: %v", err)
	}
}

// TestRepairCancelledLeavesStateUntouched: a Repair whose context is
// already done must not apply its batch. The graph, backbone and objective
// stay as they were, and the same batch then repairs exactly as the scratch
// replay does.
func TestRepairCancelledLeavesStateUntouched(t *testing.T) {
	base := dynamicTestGraph(t)
	ctx := context.Background()
	d, err := NewDynamic(ctx, base, 0.4, DynOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := newScratchPipeline(d)
	bb := d.Backbone()
	batch := randomBatch(rand.New(rand.NewSource(3)), ref.n, ref.recs, 8)
	touched := make(map[uint64]bool, len(batch))
	for _, ed := range batch {
		touched[repairKey(ed.U, ed.V)] = true
	}
	for _, id := range bb { // plus the delete of an untouched backbone edge
		if e := d.Graph().Edge(id); !touched[repairKey(e.U, e.V)] {
			batch = append(batch, ugraph.EdgeEdit{Op: ugraph.EditDelete, U: e.U, V: e.V})
			break
		}
	}

	g, obj := d.Graph(), d.ObjectiveD1()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := d.Repair(cancelled, batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("Repair with a cancelled context: err = %v, want context.Canceled", err)
	}
	if d.Graph() != g || d.Graph().NumEdges() != base.NumEdges() {
		t.Fatalf("cancelled Repair replaced the graph (%d edges, was %d)", d.Graph().NumEdges(), base.NumEdges())
	}
	if !slices.Equal(d.Backbone(), bb) {
		t.Fatal("cancelled Repair changed the backbone")
	}
	if got := d.ObjectiveD1(); got != obj {
		t.Fatalf("cancelled Repair moved the objective: %.17g → %.17g", obj, got)
	}

	if _, err := d.Repair(ctx, batch); err != nil {
		t.Fatalf("retry after a cancelled Repair: %v", err)
	}
	rg, rbb, tr := ref.apply(t, ctx, batch)
	assertRepairedEqualsScratch(t, "retry", d, rg, rbb, tr)
}

// TestSelectEdgesMatchesSort checks backbone maintenance's one-pass
// selection against sorting every candidate, on probabilities drawn from a
// few values so that most comparisons are ties broken by id.
func TestSelectEdgesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(60)
		p := make([]float64, m)
		in := make([]bool, m)
		for id := range p {
			p[id] = float64(1+rng.Intn(4)) / 4
			in[id] = rng.Intn(2) == 0
		}
		for _, members := range []bool{false, true} {
			var cand []int
			for id := range in {
				if in[id] == members {
					cand = append(cand, id)
				}
			}
			if len(cand) == 0 {
				continue
			}
			// Refill: p descending, ties to the lower id. Evict: p
			// ascending, ties to the higher id.
			sort.Slice(cand, func(a, b int) bool {
				pa, pb := p[cand[a]], p[cand[b]]
				switch {
				case pa != pb && members:
					return pa < pb
				case pa != pb:
					return pa > pb
				case members:
					return cand[a] > cand[b]
				default:
					return cand[a] < cand[b]
				}
			})
			k := 1 + rng.Intn(len(cand))
			got := selectEdges(p, in, members, k)
			sort.Ints(got)
			want := append([]int(nil), cand[:k]...)
			sort.Ints(want)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d members=%v k=%d: selected %v, want %v", trial, members, k, got, want)
			}
		}
	}
}

// TestDynamicRejectsCutMethods: the k-cut rules read global state the
// incremental repair cannot re-dirty precisely, so NewDynamic refuses them.
func TestDynamicRejectsCutMethods(t *testing.T) {
	base := dynamicTestGraph(t)
	if _, err := NewDynamic(context.Background(), base, 0.4, DynOptions{Method: MethodNI}); err == nil {
		t.Fatal("NewDynamic accepted a non-degree method")
	}
}

// TestRepairQueryDeterminism runs the post-repair sparsified graph through
// the Monte-Carlo query engine at Workers 1 and 8: results must be
// bit-identical, and under -race the 8-worker run exercises the repaired
// graph's shared read paths.
func TestRepairQueryDeterminism(t *testing.T) {
	base := dynamicTestGraph(t)
	ctx := context.Background()
	d, err := NewDynamic(ctx, base, 0.4, DynOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	ref := newScratchPipeline(d)
	for _, size := range []int{4, 32} {
		batch := randomBatch(rng, ref.n, ref.recs, size)
		if _, err := d.Repair(ctx, batch); err != nil {
			t.Fatal(err)
		}
		g, bb, tr := ref.apply(t, ctx, batch)
		assertRepairedEqualsScratch(t, fmt.Sprintf("%d edits", size), d, g, bb, tr)
	}
	sg, err := d.Sparsified()
	if err != nil {
		t.Fatal(err)
	}
	pairs := []queries.Pair{{S: 0, T: 1}, {S: 2, T: 9}, {S: 5, T: 40}}
	var got [][]float64
	for _, workers := range []int{1, 8} {
		r, err := queries.Reliability(ctx, sg, pairs, mc.Options{Samples: 2000, Seed: 17, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	for i := range pairs {
		if got[0][i] != got[1][i] {
			t.Fatalf("pair %d: Workers=1 → %.17g, Workers=8 → %.17g", i, got[0][i], got[1][i])
		}
	}
}
