// The digests below are bit-exact results of unfused float64 arithmetic.
// The gc compiler fuses x*y + z into one FMA instruction on arm64, ppc64,
// s390x, riscv64 and loong64, which rounds differently, so the pins are
// defined for amd64 only.

//go:build amd64

package core

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ugs/internal/gen"
	"ugs/internal/ugraph"
)

// TestSweepOutputPinned pins the exact output bits of the sweep engine. The
// repair-vs-scratch suite compares two runs of the same sweep code, so an
// arithmetic change both sides share (a reordered sum, a fused update) would
// pass it; these digests would not. Each one is an FNV-64a hash over every
// output probability (math.Float64bits), the run's Iterations and the bits
// of its ObjectiveD1 — for GDB and EMD also of every Progress snapshot — on
// a fixed gen.Social graph. A digest may change only with a deliberate
// change to the optimization's results. The work counter EdgeVisits is not
// hashed; it is checked exactly instead: every sweep visits every backbone
// edge.
func TestSweepOutputPinned(t *testing.T) {
	g, err := gen.Social(gen.SocialConfig{N: 300, AvgDegree: 10, MeanProb: 0.2, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	backbone, err := BuildBackbone(g, 0.35, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"gdb/k1/absolute":      0x69c545046c2d435c,
		"gdb/k1/relative":      0xfee49c188b801260,
		"gdb/k1/relative/h1":   0x7be3c18920e53e01,
		"gdb/k2/absolute":      0x7b8ed910f698f43d,
		"gdb/k2/relative":      0x123b06eed40260a4,
		"gdb/kall/absolute":    0xb8dc10131024fffe,
		"gdb/kall/relative":    0xc6633676e5087d67,
		"emd/absolute":         0xba50b5ed0a8fef52,
		"emd/relative":         0x4a73383fdc25cb28,
		"dynamic/gdb/absolute": 0x8ece3a9fe39f6de9,
		"dynamic/emd/relative": 0x2087441b786effd9,
	}
	got := make(map[string]uint64, len(want))
	// fullSweeps reports whether a GDB run's work counter reads Iterations
	// full sweeps of the backbone.
	fullSweeps := func(st RunStats) bool { return st.EdgeVisits == st.Iterations*len(backbone) }

	gdbCases := []struct {
		name string
		k    int
		dt   Discrepancy
		h    float64
	}{
		{"gdb/k1/absolute", 1, Absolute, 0},
		{"gdb/k1/relative", 1, Relative, 0},
		{"gdb/k1/relative/h1", 1, Relative, 1},
		{"gdb/k2/absolute", 2, Absolute, 0},
		{"gdb/k2/relative", 2, Relative, 0},
		{"gdb/kall/absolute", KAll, Absolute, 0},
		{"gdb/kall/relative", KAll, Relative, 0},
	}
	for _, c := range gdbCases {
		d := newPinDigest()
		partial := 0 // Progress snapshots that are not full sweeps
		progress := func(st RunStats) {
			if !fullSweeps(st) {
				partial++
			}
			d.progress(st)
		}
		out, st, err := GDB(ctx, g, backbone, GDBOptions{Discrepancy: c.dt, K: c.k, H: c.h, Progress: progress})
		if err != nil {
			t.Fatal(err)
		}
		if !fullSweeps(*st) || partial > 0 {
			t.Errorf("%s: %d edge visits in %d sweeps (%d partial snapshots), want %d × |backbone| = %d",
				c.name, st.EdgeVisits, st.Iterations, partial, st.Iterations, st.Iterations*len(backbone))
		}
		d.graph(out)
		d.stats(st.Iterations, st.ObjectiveD1)
		got[c.name] = d.Sum64()
	}
	for _, dt := range []Discrepancy{Absolute, Relative} {
		d := newPinDigest()
		out, st, err := EMD(ctx, g, backbone, EMDOptions{Discrepancy: dt, Progress: d.progress})
		if err != nil {
			t.Fatal(err)
		}
		// Swaps keep the backbone's size, so every M-phase sweep visits
		// len(backbone) edges.
		if st.EdgeVisits == 0 || st.EdgeVisits%len(backbone) != 0 {
			t.Errorf("emd/%v: %d edge visits, not a positive multiple of |backbone| = %d",
				dt, st.EdgeVisits, len(backbone))
		}
		d.graph(out)
		d.stats(st.Iterations, st.ObjectiveD1)
		d.u64(uint64(st.Swaps))
		got["emd/"+dt.String()] = d.Sum64()
	}
	for _, c := range []struct {
		name   string
		method Method
		dt     Discrepancy
	}{
		{"dynamic/gdb/absolute", MethodGDB, Absolute},
		{"dynamic/emd/relative", MethodEMD, Relative},
	} {
		dyn, err := NewDynamic(ctx, g, 0.35, DynOptions{Method: c.method, Discrepancy: c.dt, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		d := newPinDigest()
		d.dynamic(t, dyn)
		rng := rand.New(rand.NewSource(8))
		for _, b := range []struct{ size, deletes, inserts int }{
			{12, 2, 2}, {5, 0, 0}, {40, 2, 2}, {30, 12, 0},
		} {
			st, err := dyn.Repair(ctx, pinMixedBatch(rng, dyn, b.size, b.deletes, b.inserts))
			if err != nil {
				t.Fatal(err)
			}
			if w := st.Sweeps * len(dyn.Backbone()); st.EdgeVisits != w {
				t.Errorf("%s: repair made %d edge visits in %d sweeps, want %d × %d = %d",
					c.name, st.EdgeVisits, st.Sweeps, st.Sweeps, len(dyn.Backbone()), w)
			}
			d.stats(st.Sweeps, st.ObjectiveD1)
			d.u64(uint64(st.DirtyVertices))
			d.u64(uint64(st.BackboneAdded))
			d.u64(uint64(st.BackboneRemoved))
			d.dynamic(t, dyn)
		}
		got[c.name] = d.Sum64()
	}

	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: digest %#016x, pinned %#016x", name, got[name], want[name])
		}
	}
}

// pinMixedBatch draws a batch of size edits on distinct pairs over dyn's
// current graph: deletes (the first of a backbone edge, the rest outside
// the backbone), inserts of absent pairs, and reweights of existing edges
// for the remainder. Deleting one member and several non-members shrinks
// the budget below the backbone, so maintenance must evict; one member and
// one non-member with two inserts leaves a deficit to refill.
func pinMixedBatch(rng *rand.Rand, dyn *Dynamic, size, deletes, inserts int) []ugraph.EdgeEdit {
	g := dyn.Graph()
	touched := make(map[[2]int]bool, size)
	var batch []ugraph.EdgeEdit
	add := func(op ugraph.EditOp, u, v int, p float64) {
		if u > v {
			u, v = v, u
		}
		touched[[2]int{u, v}] = true
		batch = append(batch, ugraph.EdgeEdit{Op: op, U: u, V: v, P: p})
	}
	free := func(e ugraph.Edge) bool { return !touched[[2]int{e.U, e.V}] }
	bb := dyn.Backbone()
	if deletes > 0 {
		e := g.Edge(bb[rng.Intn(len(bb))])
		add(ugraph.EditDelete, e.U, e.V, 0)
	}
	inBB := make(map[int]bool, len(bb))
	for _, id := range bb {
		inBB[id] = true
	}
	for len(batch) < deletes {
		if id := rng.Intn(g.NumEdges()); !inBB[id] && free(g.Edge(id)) {
			add(ugraph.EditDelete, g.Edge(id).U, g.Edge(id).V, 0)
		}
	}
	for len(batch) < deletes+inserts {
		u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
		if u != v && !g.HasEdge(u, v) && !touched[[2]int{min(u, v), max(u, v)}] {
			add(ugraph.EditInsert, u, v, 0.02+0.96*rng.Float64())
		}
	}
	for len(batch) < size {
		if e := g.Edge(rng.Intn(g.NumEdges())); free(e) {
			add(ugraph.EditReweight, e.U, e.V, 0.02+0.96*rng.Float64())
		}
	}
	return batch
}

type pinDigest struct {
	hash.Hash64
	buf [8]byte
}

func newPinDigest() *pinDigest { return &pinDigest{Hash64: fnv.New64a()} }

func (d *pinDigest) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.Write(d.buf[:])
}

func (d *pinDigest) stats(iters int, d1 float64) {
	d.u64(uint64(iters))
	d.u64(math.Float64bits(d1))
}

// progress hashes each per-sweep (or per-round) snapshot, whose
// ObjectiveD1 is the incrementally maintained objective: this pins the
// sweep's running accumulators, not just the exact rescan at the end.
func (d *pinDigest) progress(st RunStats) {
	d.stats(st.Iterations, st.ObjectiveD1)
	d.u64(uint64(st.Swaps))
}

// graph hashes every edge of a sparsified output: endpoints and the bits of
// its probability.
func (d *pinDigest) graph(g *ugraph.Graph) {
	d.u64(uint64(g.NumEdges()))
	for _, e := range g.Edges() {
		d.u64(uint64(e.U))
		d.u64(uint64(e.V))
		d.u64(math.Float64bits(e.P))
	}
}

// dynamic hashes a Dynamic's materialized sparsified graph and its exact
// objective.
func (d *pinDigest) dynamic(t *testing.T, dyn *Dynamic) {
	t.Helper()
	sg, err := dyn.Sparsified()
	if err != nil {
		t.Fatal(err)
	}
	d.graph(sg)
	d.u64(math.Float64bits(dyn.ObjectiveD1()))
}
