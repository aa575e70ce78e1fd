package ds

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexedMaxHeapBasic(t *testing.T) {
	h := NewIndexedMaxHeap(4)
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(0, 1.0)
	h.Push(1, 3.0)
	h.Push(2, 2.0)
	if it, pr := h.Top(); it != 1 || pr != 3.0 {
		t.Errorf("Top = (%d,%v), want (1,3)", it, pr)
	}
	if !h.Contains(1) || h.Contains(3) {
		t.Error("Contains wrong")
	}
	if it, _ := h.Pop(); it != 1 {
		t.Errorf("Pop = %d, want 1", it)
	}
	if h.Contains(1) {
		t.Error("popped item still contained")
	}
	if it, _ := h.Pop(); it != 2 {
		t.Errorf("Pop = %d, want 2", it)
	}
	if it, _ := h.Pop(); it != 0 {
		t.Errorf("Pop = %d, want 0", it)
	}
	if h.Len() != 0 {
		t.Error("heap not empty after pops")
	}
}

func TestIndexedMaxHeapUpdate(t *testing.T) {
	h := NewIndexedMaxHeap(3)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Push(2, 3)
	h.Update(0, 10) // raise
	if it, _ := h.Top(); it != 0 {
		t.Errorf("after raise Top = %d, want 0", it)
	}
	h.Update(0, -1) // lower
	if it, _ := h.Top(); it != 2 {
		t.Errorf("after lower Top = %d, want 2", it)
	}
	h.Update(0, h.Priority(0)) // no-op
	if h.Len() != 3 {
		t.Error("no-op update changed size")
	}
	h.Remove(2)
	if h.Contains(2) || h.Len() != 2 {
		t.Error("Remove failed")
	}
	h.Update(2, 5) // upsert re-inserts
	if it, _ := h.Top(); it != 2 {
		t.Errorf("after upsert Top = %d, want 2", it)
	}
}

// TestIndexedMaxHeapUnchangedUpdateKeepsLayout pins the property EMD's
// E-phase resync relies on: re-assigning every item its current priority
// leaves the heap exactly as it was — the same layout, hence the same Top
// among tied items — so refreshing all vertices equals refreshing only the
// changed ones.
func TestIndexedMaxHeapUnchangedUpdateKeepsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n = 64
	h := NewIndexedMaxHeap(n)
	for i := 0; i < n; i++ {
		h.Push(i, float64(rng.Intn(4))) // many ties per priority level
	}
	for k := 0; k < n; k++ {
		h.Update(rng.Intn(n), float64(rng.Intn(4)))
	}
	items := append([]int(nil), h.items...)
	pos := append([]int(nil), h.pos...)
	top, topPrio := h.Top()
	for i := 0; i < n; i++ {
		h.Update(i, h.Priority(i))
	}
	if !slices.Equal(h.items, items) || !slices.Equal(h.pos, pos) {
		t.Errorf("unchanged updates moved items:\nitems %v\nwant  %v", h.items, items)
	}
	if it, pr := h.Top(); it != top || pr != topPrio {
		t.Errorf("Top = (%d,%v), want (%d,%v)", it, pr, top, topPrio)
	}
}

func TestIndexedMaxHeapPanics(t *testing.T) {
	h := NewIndexedMaxHeap(2)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Top empty", func() { h.Top() })
	mustPanic("Pop empty", func() { h.Pop() })
	mustPanic("Remove absent", func() { h.Remove(0) })
	h.Push(0, 1)
	mustPanic("double Push", func() { h.Push(0, 2) })
}

// TestIndexedMaxHeapSortsRandomInput verifies heap order via heapsort against
// the standard library sort, under random priorities and random updates.
func TestIndexedMaxHeapSortsRandomInput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		h := NewIndexedMaxHeap(n)
		prio := make([]float64, n)
		for i := 0; i < n; i++ {
			prio[i] = rng.NormFloat64()
			h.Push(i, prio[i])
		}
		// Random updates.
		for k := 0; k < n; k++ {
			i := rng.Intn(n)
			prio[i] = rng.NormFloat64()
			h.Update(i, prio[i])
		}
		want := append([]float64(nil), prio...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		for i := 0; i < n; i++ {
			_, pr := h.Pop()
			if pr != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIndexedMaxHeapRandomOps exercises interleaved push/pop/update/remove
// against a naive slice model.
func TestIndexedMaxHeapRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 50
	h := NewIndexedMaxHeap(n)
	model := map[int]float64{}
	for step := 0; step < 3000; step++ {
		item := rng.Intn(n)
		switch op := rng.Intn(4); {
		case op == 0 && !h.Contains(item):
			p := rng.NormFloat64()
			h.Push(item, p)
			model[item] = p
		case op == 1 && h.Len() > 0:
			it, pr := h.Pop()
			wantIt, wantPr := bestOf(model)
			if pr != wantPr {
				t.Fatalf("step %d: Pop priority %v, want %v", step, pr, wantPr)
			}
			_ = wantIt // ties may pick a different item with equal priority
			delete(model, it)
		case op == 2:
			p := rng.NormFloat64()
			h.Update(item, p)
			model[item] = p
		case op == 3 && h.Contains(item):
			h.Remove(item)
			delete(model, item)
		}
		if h.Len() != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, h.Len(), len(model))
		}
		if h.Len() > 0 {
			_, pr := h.Top()
			if _, wantPr := bestOf(model); pr != wantPr {
				t.Fatalf("step %d: Top priority %v, want %v", step, pr, wantPr)
			}
		}
	}
}

func bestOf(m map[int]float64) (int, float64) {
	first := true
	var bi int
	var bp float64
	for i, p := range m {
		if first || p > bp {
			bi, bp = i, p
			first = false
		}
	}
	return bi, bp
}
