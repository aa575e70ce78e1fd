package ugraph

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzRead exercises the text-format parser with arbitrary bytes: it must
// either reject the input with an error or return a valid graph — never
// panic, and never commit unbounded memory off a hostile header (the
// maxHeaderCount guard). Any accepted graph must round-trip through
// Write/Read to an equal graph — modulo p = 0 edges, which Write drops by
// contract.
func FuzzRead(f *testing.F) {
	f.Add([]byte("3 2\n0 1 0.5\n1 2 0.25\n"))
	f.Add([]byte("# comment\n\n2 1\n0 1 1\n"))
	f.Add([]byte("3 1\n0 1 0\n")) // zero-probability edge (legacy sparsifier output)
	f.Add([]byte("0 0\n"))
	f.Add([]byte("2 1\n0 1 1e-3\n"))
	f.Add([]byte("1 0"))
	f.Add([]byte("x y\n"))
	f.Add([]byte("3 2\n0 1 0.5\n0 1 0.5\n")) // duplicate
	f.Add([]byte("99999 1\n0 1 0.5\n"))
	f.Add([]byte("999999999999 0\n")) // hostile header: must error, not OOM
	f.Add([]byte("3 999999999\n0 1 0.5\n"))
	f.Add([]byte("2 1\n0 1 NaN\n"))
	f.Add([]byte("2 1\n0 1 +Inf\n"))
	// Seed the corpus with the committed example graphs, so mutations start
	// from realistic well-formed inputs.
	corpus, err := filepath.Glob(filepath.Join("..", "..", "examples", "graphs", "*.ugs"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("example graph corpus missing: %v (files %d)", err, len(corpus))
	}
	for _, path := range corpus {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, input []byte) {
		g, err := Read(bytes.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write of accepted graph failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip Read failed: %v\noriginal input: %q", err, input)
		}
		var nonzero []int
		for id := 0; id < g.NumEdges(); id++ {
			if g.Prob(id) > 0 {
				nonzero = append(nonzero, id)
			}
		}
		want, err := g.EdgeSubgraph(nonzero)
		if err != nil {
			t.Fatalf("EdgeSubgraph of nonzero edges failed: %v", err)
		}
		if !want.Equal(back) {
			t.Fatalf("round trip not equal after dropping p=0 edges\ninput: %q", input)
		}
	})
}

// TestReadRejectsHostileHeaders pins the maxHeaderCount guard: headers
// declaring absurd vertex or edge counts must error before any allocation
// proportional to the declared sizes.
func TestReadRejectsHostileHeaders(t *testing.T) {
	for _, input := range []string{
		"999999999999 0\n",
		"2000000000 1\n0 1 0.5\n",
		"3 999999999\n0 1 0.5\n",
	} {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("hostile header accepted: %q", input)
		}
	}
	// The committed example corpus stays well inside the limit.
	if _, err := Read(strings.NewReader("1000000 0\n")); err != nil {
		t.Errorf("legitimate large-but-bounded header rejected: %v", err)
	}
}

// fuzzEditGraph is FuzzApplyEdits' base graph: a hub, a triangle fan, a
// tail and an isolated vertex (8), so rows of very different lengths are
// edited.
func fuzzEditGraph() *Graph {
	return MustNew(9, []Edge{
		{U: 0, V: 1, P: 0.9}, {U: 0, V: 2, P: 0.5}, {U: 0, V: 3, P: 0.25},
		{U: 0, V: 4, P: 0.8}, {U: 0, V: 5, P: 0.4}, {U: 1, V: 2, P: 0.7},
		{U: 2, V: 3, P: 0.3}, {U: 3, V: 4, P: 0.6}, {U: 5, V: 6, P: 1},
		{U: 6, V: 7, P: 0.15},
	})
}

// decodeEditBatch turns fuzz bytes into an edit batch, four bytes per edit:
// the op (3 is not a valid op), two endpoints in [-(n+1), n+1] and a
// probability byte (0 → 0, 1 → NaN, 2 → 1.5, 3 → -0.5, otherwise
// (b−3)/252, which covers (0, 1]).
func decodeEditBatch(data []byte, n int) []EdgeEdit {
	var batch []EdgeEdit
	for ; len(data) >= 4 && len(batch) < 32; data = data[4:] {
		p := float64(data[3]-3) / 252
		switch data[3] {
		case 0:
			p = 0
		case 1:
			p = nan()
		case 2:
			p = 1.5
		case 3:
			p = -0.5
		}
		batch = append(batch, EdgeEdit{
			Op: EditOp(data[0] % 4),
			U:  int(int8(data[1])) % (n + 2),
			V:  int(int8(data[2])) % (n + 2),
			P:  p,
		})
	}
	return batch
}

// encodeEditBatch is the inverse of decodeEditBatch for in-range edits with
// p in (0, 1], used to seed the corpus with valid batches.
func encodeEditBatch(batch []EdgeEdit) []byte {
	var out []byte
	for _, ed := range batch {
		pb := byte(3 + int(ed.P*252+0.5))
		if ed.Op == EditDelete {
			pb = 0
		}
		out = append(out, byte(ed.Op), byte(ed.U), byte(ed.V), pb)
	}
	return out
}

// FuzzApplyEdits applies arbitrary batches to a small heap graph and to its
// .ugsb-mapped copy. Each call must either reject the batch with an
// *EditError and leave the input untouched, or return a graph whose edge
// list, CSR offsets and arcs equal New over that same edge list; EdgeID on
// the result must then find every edge in both endpoint orders and report
// absent pairs, out-of-range vertices and u == v as missing. The heap and
// mapped inputs must agree on the outcome, and ApplyEditsInPlace must agree
// with both (see checkInPlace).
func FuzzApplyEdits(f *testing.F) {
	g := fuzzEditGraph()
	path := filepath.Join(f.TempDir(), "g.ugsb")
	if err := WriteBinaryFile(path, g); err != nil {
		f.Fatal(err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { mg.Close() })
	n := g.NumVertices()

	for _, batch := range [][]EdgeEdit{
		{{Op: EditReweight, U: 0, V: 1, P: 0.2}},
		{{Op: EditDelete, U: 0, V: 3}},
		{{Op: EditInsert, U: 8, V: 0, P: 0.5}},
		{{Op: EditDelete, U: 0, V: 1}, {Op: EditDelete, U: 6, V: 5}, {Op: EditInsert, U: 7, V: 8, P: 1}},
		{{Op: EditReweight, U: 4, V: 3, P: 1}, {Op: EditInsert, U: 1, V: 3, P: 0.1}, {Op: EditDelete, U: 2, V: 3}},
		{{Op: EditDelete, U: 0, V: 1}, {Op: EditDelete, U: 0, V: 2}, {Op: EditDelete, U: 0, V: 3},
			{Op: EditDelete, U: 0, V: 4}, {Op: EditDelete, U: 0, V: 5}},
	} {
		f.Add(encodeEditBatch(batch))
	}
	// Random valid batches: every kind of edit at every row, 1–12 edits.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		var batch []EdgeEdit
		touched := make(map[uint64]bool)
		for size := 1 + rng.Intn(12); len(batch) < size; {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || touched[pairKey(u, v)] {
				continue
			}
			touched[pairKey(u, v)] = true
			p := float64(1+rng.Intn(252)) / 252
			switch {
			case !g.HasEdge(u, v):
				batch = append(batch, EdgeEdit{Op: EditInsert, U: u, V: v, P: p})
			case rng.Intn(2) == 0:
				batch = append(batch, EdgeEdit{Op: EditDelete, U: u, V: v})
			default:
				batch = append(batch, EdgeEdit{Op: EditReweight, U: u, V: v, P: p})
			}
		}
		f.Add(encodeEditBatch(batch))
	}
	// Invalid batches: empty, self-loop, out of range, duplicate pair,
	// insert of an existing edge, delete of an absent one, bad
	// probabilities, unknown op.
	f.Add([]byte{})
	f.Add([]byte{byte(EditInsert), 2, 2, 100})
	f.Add([]byte{byte(EditInsert), 0, 9, 100})
	f.Add([]byte{byte(EditInsert), 0xff, 1, 100})
	f.Add([]byte{byte(EditReweight), 0, 1, 100, byte(EditDelete), 1, 0, 0})
	f.Add([]byte{byte(EditInsert), 0, 1, 100})
	f.Add([]byte{byte(EditDelete), 1, 4, 0})
	f.Add([]byte{byte(EditReweight), 0, 1, 0})
	f.Add([]byte{byte(EditInsert), 1, 4, 1})
	f.Add([]byte{byte(EditInsert), 1, 4, 2})
	f.Add([]byte{3, 1, 4, 100})

	before := snap(g)

	f.Fuzz(func(t *testing.T, data []byte) {
		batch := decodeEditBatch(data, n)
		var results [2]*Graph
		var errs [2]error
		var heapRes *EditResult
		for i, in := range []*Graph{g, mg} {
			res, err := ApplyEdits(in, batch)
			if !before.of(in) {
				t.Fatalf("input %d modified by ApplyEdits(%v)", i, batch)
			}
			if i == 0 {
				heapRes = res
			}
			errs[i] = err
			if err != nil {
				var ee *EditError
				if !errors.As(err, &ee) {
					t.Fatalf("input %d: error %v is not an *EditError", i, err)
				}
				continue
			}
			results[i] = res.Graph
			want, err := New(n, res.Graph.Edges())
			if err != nil {
				t.Fatalf("input %d: result edge list rejected by New: %v", i, err)
			}
			if !snap(want).of(res.Graph) {
				t.Fatalf("input %d: result CSR differs from New over its edges\nbatch %v\noffsets %v want %v\narcs %v\nwant %v",
					i, batch, res.Graph.ArcOffsets(), want.ArcOffsets(), res.Graph.Arcs(), want.Arcs())
			}
			checkEdgeIDs(t, res.Graph)
		}
		if (errs[0] == nil) != (errs[1] == nil) || (errs[0] != nil && errs[0].Error() != errs[1].Error()) {
			t.Fatalf("heap and mapped inputs disagree: %v vs %v", errs[0], errs[1])
		}
		if errs[0] == nil && !results[0].Equal(results[1]) {
			t.Fatalf("heap and mapped results differ for %v", batch)
		}
		checkInPlace(t, g, before, batch, heapRes, errs[0])
	})
}

// checkInPlace applies batch the way a Dynamic applies it to storage it
// owns, with ApplyEditsInPlace: on a clone of g, passing an id-map buffer
// of stale contents, and, for a reweight-only batch, on a graph with its
// own edge list that shares g's CSR (what a reweight-only ApplyEdits
// returns). Each must give ApplyEdits' error wantErr, or its result want
// in the graph it was given, and leave g as before.
func checkInPlace(t *testing.T, g *Graph, before snapshot, batch []EdgeEdit, want *EditResult, wantErr error) {
	t.Helper()
	stale := make([]int32, g.NumEdges()+3)
	for i := range stale {
		stale[i] = int32(7*i - 5)
	}
	targets := []*Graph{g.Clone()}
	if want != nil && !want.Structural {
		targets = append(targets, &Graph{n: g.n, edges: slices.Clone(g.edges), arcOff: g.arcOff, arcs: g.arcs})
	}
	for i, h := range targets {
		res, err := ApplyEditsInPlace(h, batch, stale)
		if !before.of(g) {
			t.Fatalf("target %d: ApplyEditsInPlace(%v) modified the input graph", i, batch)
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("target %d: ApplyEditsInPlace error %v, ApplyEdits %v", i, err, wantErr)
		}
		if err != nil {
			if !before.of(h) {
				t.Fatalf("target %d: rejected batch %v modified the graph", i, batch)
			}
			continue
		}
		if res.Graph != h {
			t.Fatalf("target %d: result is not the graph edited in place", i)
		}
		if !snap(want.Graph).of(h) {
			t.Fatalf("target %d: batch %v in place\nedges %v\noffsets %v\narcs %v\nApplyEdits: %v %v %v",
				i, batch, h.Edges(), h.ArcOffsets(), h.Arcs(), want.Graph.Edges(), want.Graph.ArcOffsets(), want.Graph.Arcs())
		}
		if res.Structural != want.Structural || !slices.Equal(res.OldToNew, want.OldToNew) ||
			!slices.Equal(res.InsertedIDs, want.InsertedIDs) {
			t.Fatalf("target %d: batch %v in place: structural %v, OldToNew %v, inserted %v; ApplyEdits: %v, %v, %v",
				i, batch, res.Structural, res.OldToNew, res.InsertedIDs, want.Structural, want.OldToNew, want.InsertedIDs)
		}
	}
}

// snapshot is a copy of a graph's edge list and CSR.
type snapshot struct {
	edges  []Edge
	arcOff []int32
	arcs   []Arc
}

func snap(h *Graph) snapshot {
	return snapshot{slices.Clone(h.Edges()), slices.Clone(h.ArcOffsets()), slices.Clone(h.Arcs())}
}

// of reports whether h holds exactly s's edge list and CSR.
func (s snapshot) of(h *Graph) bool {
	return slices.Equal(h.Edges(), s.edges) && slices.Equal(h.ArcOffsets(), s.arcOff) &&
		slices.Equal(h.Arcs(), s.arcs)
}

// checkEdgeIDs verifies EdgeID against h's own edge list: every edge is
// found under both endpoint orders, and every other pair over [-1, n] —
// absent pairs, out-of-range vertices, u == v — is reported missing.
func checkEdgeIDs(t *testing.T, h *Graph) {
	t.Helper()
	n := h.NumVertices()
	want := make(map[[2]int]int, h.NumEdges())
	for id, e := range h.Edges() {
		want[[2]int{e.U, e.V}] = id
		want[[2]int{e.V, e.U}] = id
	}
	for u := -1; u <= n; u++ {
		for v := -1; v <= n; v++ {
			wid, wok := want[[2]int{u, v}]
			id, ok := h.EdgeID(u, v)
			if ok != wok || (ok && id != wid) {
				t.Fatalf("EdgeID(%d,%d) = %d,%v; want %d,%v", u, v, id, ok, wid, wok)
			}
		}
	}
}
