package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"ugs/internal/gen"
	"ugs/internal/ugraph"
)

// keptBatch draws the kind of batch step i of a kept-schedule stream sends,
// against the scratch pipeline's current edges: reweight-only batches and
// budget-neutral ones (deletes of non-members, as many inserts, and
// reweights), both of which leave backbone membership as it was, and
// every fifth batch one that deletes a backbone member, so that
// maintenance refills. It reports whether the batch leaves membership
// unchanged.
func keptBatch(rng *rand.Rand, ref *scratchPipeline, i int) ([]ugraph.EdgeEdit, bool) {
	recs := ref.recs
	touched := make(map[uint64]bool)
	var batch []ugraph.EdgeEdit
	add := func(op ugraph.EditOp, u, v int, p float64) {
		touched[repairKey(u, v)] = true
		batch = append(batch, ugraph.EdgeEdit{Op: op, U: u, V: v, P: p})
	}
	// pick returns an untouched edge whose membership is member.
	pick := func(member bool) refEdge {
		for {
			r := recs[rng.Intn(len(recs))]
			if k := repairKey(r.u, r.v); !touched[k] && ref.inBB[k] == member {
				return r
			}
		}
	}
	prob := func() float64 { return 0.02 + 0.96*rng.Float64() }
	kind := i % 5
	switch kind {
	case 2, 3: // budget-neutral
		have := make(map[uint64]bool, len(recs))
		for _, r := range recs {
			have[repairKey(r.u, r.v)] = true
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			r := pick(false)
			add(ugraph.EditDelete, r.u, r.v, 0)
			for {
				u, v := rng.Intn(ref.n), rng.Intn(ref.n)
				if u != v && !have[repairKey(u, v)] && !touched[repairKey(u, v)] {
					add(ugraph.EditInsert, u, v, prob())
					break
				}
			}
		}
	case 4: // a member leaves
		r := pick(true)
		add(ugraph.EditDelete, r.u, r.v, 0)
	}
	for n := 1 + rng.Intn(12); n > 0; n-- {
		r := pick(rng.Intn(3) == 0)
		add(ugraph.EditReweight, r.u, r.v, prob())
	}
	return batch, kind != 4
}

func keptTestGraph(t *testing.T) *ugraph.Graph {
	t.Helper()
	g, err := gen.Social(gen.SocialConfig{N: 400, AvgDegree: 8, MeanProb: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRepairKeepsSchedule streams 60 batches through a Dynamic, 48 of them
// reweight-only or budget-neutral, so that they leave backbone membership
// unchanged and the repair keeps its level schedule: as it was after a
// reweight-only batch, with its edge ids remapped after a structural one.
// Every fifth batch deletes a backbone member, and the schedule is built
// anew. After every batch the state must equal the scratch replay's, for
// gdb and emd under both discrepancies. The same stream with a collection
// between repairs, which drops the kept schedule each time, must end in
// the same bits. Where the kernel runs, the test requires the schedule
// reused, remapped and rebuilt at least once each, and logs the counts.
func TestRepairKeepsSchedule(t *testing.T) {
	base := keptTestGraph(t)
	ctx := context.Background()
	const batches = 60
	run := func(t *testing.T, method Method, dt Discrepancy, collect bool) *Dynamic {
		d, err := NewDynamic(ctx, base, 0.4, DynOptions{Method: method, Discrepancy: dt, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		ref := newScratchPipeline(d)
		rng := rand.New(rand.NewSource(int64(31 + 7*int(method) + int(dt))))
		for i := 0; i < batches; i++ {
			batch, held := keptBatch(rng, ref, i)
			rebuilt := d.schedules.rebuilt
			st, err := d.Repair(ctx, batch)
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			if held && st.BackboneAdded+st.BackboneRemoved > 0 {
				t.Fatalf("batch %d: %d members added, %d removed by a batch meant to hold membership",
					i, st.BackboneAdded, st.BackboneRemoved)
			}
			if hasDegreeKernel && !held && d.schedules.rebuilt == rebuilt {
				t.Fatalf("batch %d changed backbone membership but kept the schedule", i)
			}
			g, bb, tr := ref.apply(t, ctx, batch)
			assertRepairedEqualsScratch(t, fmt.Sprintf("batch %d (%d edits)", i, len(batch)), d, g, bb, tr)
			if collect {
				runtime.GC()
			}
		}
		return d
	}
	for _, method := range []Method{MethodGDB, MethodEMD} {
		for _, dt := range []Discrepancy{Absolute, Relative} {
			t.Run(fmt.Sprintf("%v_%v", method, dt), func(t *testing.T) {
				kept := run(t, method, dt, false)
				collected := run(t, method, dt, true)
				if !kept.Graph().Equal(collected.Graph()) || !slices.Equal(kept.Backbone(), collected.Backbone()) {
					t.Fatal("the stream with collections ended on another graph or backbone")
				}
				for _, id := range kept.Backbone() {
					if math.Float64bits(kept.Prob(id)) != math.Float64bits(collected.Prob(id)) {
						t.Fatalf("edge %d: p = %v kept, %v with collections", id, kept.Prob(id), collected.Prob(id))
					}
				}
				if a, b := kept.ObjectiveD1(), collected.ObjectiveD1(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("objective %v kept, %v with collections", a, b)
				}
				if !hasDegreeKernel {
					t.Log("sweep path: portable only, so repairs keep no level schedule")
					return
				}
				s, c := kept.schedules, collected.schedules
				t.Logf("schedule over %d repairs: reused %d, remapped %d, rebuilt %d; with a collection between repairs: reused %d, remapped %d, rebuilt %d",
					batches, s.reused, s.remapped, s.rebuilt, c.reused, c.remapped, c.rebuilt)
				if s.reused == 0 || s.remapped == 0 || s.rebuilt < 2 {
					t.Errorf("the schedule was reused %d times, remapped %d and rebuilt %d: want at least 1, 1 and 2",
						s.reused, s.remapped, s.rebuilt)
				}
				if c.rebuilt != batches {
					t.Errorf("with a collection between repairs the schedule was rebuilt %d times, want every repair (%d): the kept state outlives a collection",
						c.rebuilt, batches)
				}
			})
		}
	}
}

// TestWarmRepairAllocatesLessThanAnEdgeList: a repair edits the Dynamic's
// graph in place, and once it keeps its schedule and id map, with
// collection off it allocates less than one copy of the edge list
// (|E| × 24 bytes), for reweight-only batches and for budget-neutral
// structural ones. Nothing on that path comes from a sync.Pool, so the
// count holds under -race too.
func TestWarmRepairAllocatesLessThanAnEdgeList(t *testing.T) {
	g, err := gen.Social(gen.SocialConfig{N: 2000, AvgDegree: 10, MeanProb: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d, err := NewDynamic(ctx, g, 0.3, DynOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := newScratchPipeline(d)
	rng := rand.New(rand.NewSource(4))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	limit := uint64(24 * g.NumEdges())
	var ms runtime.MemStats
	for i := 0; i < 16; i++ {
		batch, _ := keptBatch(rng, ref, i%4) // kinds 0–3: reweight-only, then budget-neutral
		ref.recsAfter(batch)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := d.Repair(ctx, batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if got := ms.TotalAlloc - before; i >= 4 && got >= limit {
			t.Errorf("batch %d (%d edits, kind %d): a warm repair allocated %d bytes, not under |E| × 24 = %d",
				i, len(batch), i%4, got, limit)
		}
	}
}

// recsAfter carries the scratch pipeline's edge records and membership
// through batch without replaying the repair, for tests that only draw
// batches from it.
func (s *scratchPipeline) recsAfter(batch []ugraph.EdgeEdit) {
	del := make(map[uint64]bool)
	for _, ed := range batch {
		if ed.Op == ugraph.EditDelete {
			del[repairKey(ed.U, ed.V)] = true
		}
	}
	recs := s.recs[:0:0]
	for _, r := range s.recs {
		if del[repairKey(r.u, r.v)] {
			delete(s.inBB, repairKey(r.u, r.v))
			continue
		}
		recs = append(recs, r)
	}
	for _, ed := range batch {
		if ed.Op == ugraph.EditInsert {
			recs = append(recs, refEdge{min(ed.U, ed.V), max(ed.U, ed.V), ed.P})
		}
	}
	s.recs = recs
}
