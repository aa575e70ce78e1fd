package ugraph

import (
	"cmp"
	"fmt"
	"slices"
)

// EditOp enumerates the streaming edge-update operations.
type EditOp int

const (
	// EditInsert adds a new edge with probability P.
	EditInsert EditOp = iota
	// EditDelete removes an existing edge (P is ignored).
	EditDelete
	// EditReweight replaces the probability of an existing edge with P.
	EditReweight
)

// String returns the canonical lowercase operation name, which round-trips
// through ParseEditOp.
func (op EditOp) String() string {
	switch op {
	case EditInsert:
		return "insert"
	case EditDelete:
		return "delete"
	case EditReweight:
		return "reweight"
	}
	return fmt.Sprintf("editop(%d)", int(op))
}

// ParseEditOp is the inverse of EditOp.String.
func ParseEditOp(s string) (EditOp, error) {
	switch s {
	case "insert":
		return EditInsert, nil
	case "delete":
		return EditDelete, nil
	case "reweight":
		return EditReweight, nil
	}
	return 0, fmt.Errorf("ugraph: unknown edit op %q (want insert, delete or reweight)", s)
}

// EdgeEdit is one streaming update to an uncertain graph: insert, delete or
// reweight the undirected edge (U, V). Endpoint order does not matter.
type EdgeEdit struct {
	Op   EditOp
	U, V int
	P    float64 // new probability for insert/reweight; ignored for delete
}

// EditError reports why an edit batch was rejected. Batches are atomic: a
// single invalid edit rejects the whole batch and the graph is untouched.
type EditError struct {
	Index  int      // position of the offending edit in the batch; -1 for the batch itself
	Edit   EdgeEdit // the offending edit (zero value for batch-level errors)
	Reason string
}

func (e *EditError) Error() string {
	if e.Index < 0 {
		return "ugraph: invalid edit batch: " + e.Reason
	}
	return fmt.Sprintf("ugraph: edit %d (%s %d-%d): %s", e.Index, e.Edit.Op, e.Edit.U, e.Edit.V, e.Reason)
}

// EditResult is the outcome of ApplyEdits or ApplyEditsInPlace: the
// post-edit graph plus the edge identifier mapping a consumer of the old
// graph's ids needs to carry its per-edge state across the edit.
type EditResult struct {
	// Graph is the post-edit graph: a new one from ApplyEdits, which never
	// modifies its input, and the input itself from ApplyEditsInPlace.
	Graph *Graph
	// OldToNew maps every old edge id to its id in Graph, with -1 for
	// deleted edges. A nil map means the identity mapping (reweight-only
	// batch: edge ids are stable).
	OldToNew []int32
	// InsertedIDs holds the new-graph ids of inserted edges, in batch order.
	InsertedIDs []int
	// Structural reports whether the edge set changed (any insert or
	// delete). Reweight-only batches keep the CSR structure — the result
	// graph shares the adjacency arrays of a heap-resident input.
	Structural bool
}

// ApplyEdits applies a batch of edge edits to g and returns the resulting
// graph; g itself is never modified (mapped views included). The batch is
// validated as a whole against g before anything is applied, and is atomic:
// any invalid edit returns an *EditError and no result.
//
// Validation rules: endpoints must be existing vertices and distinct;
// insert/reweight probabilities must lie in (0, 1] (reweighting to zero is
// rejected — delete the edge instead); an inserted edge must not exist, a
// deleted or reweighted edge must; and at most one edit per undirected edge
// pair is allowed in a batch, so the outcome never depends on intra-batch
// ordering.
//
// A reweight-only batch preserves edge identifiers and shares the CSR
// adjacency of a heap-resident input (mapped inputs are copied, so the result
// never aliases a file mapping another goroutine could close). A structural
// batch compacts identifiers: surviving edges keep their relative order and
// inserted edges are appended in batch order, with the old-to-new mapping
// reported in the result. It is applied to a copy of g's edge list and
// offsets by ApplyEditsInPlace's routine, which reads g's arcs and writes
// the new arc array in one pass.
func ApplyEdits(g *Graph, edits []EdgeEdit) (*EditResult, error) {
	ids, inserts, deletes, err := validateEdits(g, edits)
	if err != nil {
		return nil, err
	}
	if inserts+deletes == 0 {
		return applyReweights(g, edits, ids), nil
	}
	ng := &Graph{n: g.n, edges: append(make([]Edge, 0, len(g.edges)+inserts), g.edges...),
		arcOff: slices.Clone(g.arcOff), arcs: make([]Arc, 2*(len(g.edges)-deletes+inserts))}
	return ng.applyStructural(edits, ids, inserts, deletes, g.arcs, nil), nil
}

// validateEdits checks a batch against g (see ApplyEdits) and returns the
// resolved edge id of each edit (-1 for an insert) and the numbers of
// inserts and deletes.
func validateEdits(g *Graph, edits []EdgeEdit) (ids []int, inserts, deletes int, err error) {
	if len(edits) == 0 {
		return nil, 0, 0, &EditError{Index: -1, Reason: "empty edit batch"}
	}
	n := g.NumVertices()
	seen := make(map[uint64]struct{}, len(edits))
	ids = make([]int, len(edits))
	for i, ed := range edits {
		fail := func(reason string) ([]int, int, int, error) {
			return nil, 0, 0, &EditError{Index: i, Edit: ed, Reason: reason}
		}
		if ed.U < 0 || ed.U >= n || ed.V < 0 || ed.V >= n {
			return fail(fmt.Sprintf("endpoint out of range [0,%d)", n))
		}
		if ed.U == ed.V {
			return fail("self-loop")
		}
		k := pairKey(ed.U, ed.V)
		if _, dup := seen[k]; dup {
			return fail("duplicate edge pair in batch")
		}
		seen[k] = struct{}{}
		id, exists := g.EdgeID(ed.U, ed.V)
		ids[i] = id
		switch ed.Op {
		case EditInsert:
			if exists {
				return fail("edge already exists (use reweight)")
			}
			if !(ed.P > 0 && ed.P <= 1) {
				return fail(fmt.Sprintf("probability %v outside (0,1]", ed.P))
			}
			inserts++
		case EditDelete:
			if !exists {
				return fail("edge does not exist")
			}
			deletes++
		case EditReweight:
			if !exists {
				return fail("edge does not exist (use insert)")
			}
			if !(ed.P > 0 && ed.P <= 1) {
				if ed.P == 0 {
					return fail("probability 0 (use delete)")
				}
				return fail(fmt.Sprintf("probability %v outside (0,1]", ed.P))
			}
		default:
			return fail(fmt.Sprintf("unknown op %d", int(ed.Op)))
		}
	}
	return ids, inserts, deletes, nil
}

// applyReweights handles a reweight-only batch: identifiers are stable, so
// only the edge records change. Heap inputs share their CSR adjacency, which
// only ApplyEditsInPlace writes (see its rule on sharing); mapped inputs are
// fully copied onto the heap. ids holds the resolved edge id of each edit.
func applyReweights(g *Graph, edits []EdgeEdit, ids []int) *EditResult {
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	for i, ed := range edits {
		edges[ids[i]].P = ed.P
	}
	ng := &Graph{n: g.n, edges: edges}
	if g.Mapped() {
		ng.buildAdjacency()
	} else {
		ng.arcOff, ng.arcs = g.arcOff, g.arcs
	}
	return &EditResult{Graph: ng}
}

// ApplyEditsInPlace applies a batch to g itself. It validates the batch as
// ApplyEdits does and is as atomic: an invalid batch returns an *EditError
// and leaves g untouched. The result's edge list, CSR, OldToNew and
// InsertedIDs equal ApplyEdits', but its Graph is g, so slices obtained from
// g before the call may be stale after it.
//
// g must be a heap graph whose edge list, and for a structural batch whose
// CSR, no other graph shares: a reweight-only batch writes only the edited
// edge records, while a structural one compacts the edge list and the arc
// array in place (see editArcs). A reweight-only ApplyEdits result shares
// its input's CSR, so neither of the two may take a structural batch in
// place while the other is in use. A structural result's OldToNew reuses
// the storage of oldToNew when it is large enough.
func ApplyEditsInPlace(g *Graph, edits []EdgeEdit, oldToNew []int32) (*EditResult, error) {
	if g.readonly {
		panic("ugraph: ApplyEditsInPlace on a read-only mapped graph")
	}
	ids, inserts, deletes, err := validateEdits(g, edits)
	if err != nil {
		return nil, err
	}
	if inserts+deletes == 0 {
		for i, ed := range edits {
			g.edges[ids[i]].P = ed.P
		}
		return &EditResult{Graph: g}, nil
	}
	return g.applyStructural(edits, ids, inserts, deletes, nil, oldToNew), nil
}

// applyStructural applies a validated batch with inserts or deletes to g's
// edge list and CSR in place, leaving the layout New gives the edited edge
// list: survivors keep their relative order, inserts are appended in batch
// order and end their rows (see editArcs). ids holds the resolved edge id
// of each edit. src is nil when g's arcs are the pre-edit ones; otherwise
// g's edge list and offsets are a copy of another graph's, whose arcs src
// holds and which is read and never written, and g's arc array is a fresh
// one of the edited length. OldToNew reuses the storage of oldToNew when it
// is large enough.
func (g *Graph) applyStructural(edits []EdgeEdit, ids []int, inserts, deletes int, src []Arc, oldToNew []int32) *EditResult {
	var deleted []int
	for i, ed := range edits {
		switch ed.Op {
		case EditReweight:
			g.edges[ids[i]].P = ed.P
		case EditDelete:
			deleted = append(deleted, ids[i])
		}
	}
	m := len(g.edges)
	oldToNew = slices.Grow(oldToNew[:0], m)[:m]
	clear(oldToNew)
	for _, id := range deleted {
		oldToNew[id] = -1
	}
	kept := int32(0)
	for id, nid := range oldToNew {
		if nid == 0 {
			oldToNew[id] = kept
			kept++
		}
	}
	// Survivors move down over the gaps, run by run.
	slices.Sort(deleted)
	edges := g.edges
	if len(deleted) > 0 {
		w := deleted[0]
		for i, del := range deleted {
			next := m
			if i+1 < len(deleted) {
				next = deleted[i+1]
			}
			w += copy(edges[w:], edges[del+1:next])
		}
		edges = edges[:w]
	}
	edges = slices.Grow(edges, inserts)
	insertedIDs := make([]int, 0, inserts)
	for _, ed := range edits {
		if ed.Op == EditInsert {
			insertedIDs = append(insertedIDs, len(edges))
			edges = append(edges, Edge{U: min(ed.U, ed.V), V: max(ed.U, ed.V), P: ed.P})
		}
	}
	g.edges = edges
	g.editArcs(src, oldToNew, deletes > 0, insertedIDs)
	return &EditResult{Graph: g, OldToNew: oldToNew, InsertedIDs: insertedIDs, Structural: true}
}

// editArcs brings g's CSR to the layout buildAdjacency gives its edited
// edge list: each row holds its surviving arcs, renamed through oldToNew,
// then the arcs of its inserted edges, which carry the highest ids, in
// ascending id. When src holds the pre-edit arcs, g's arc array is a fresh
// one of the edited length, and one ascending pass writes every row in
// full. In place (src nil) a row that grows would overwrite arcs not yet
// read, so with deletes the pass only drops and renames, every move
// downwards; then the inserted arcs open gaps from the last row down, each
// move a memmove of the run between two insertion points.
func (g *Graph) editArcs(src []Arc, oldToNew []int32, deletes bool, insertedIDs []int) {
	type rowArc struct {
		row int
		arc Arc
	}
	ins := make([]rowArc, 0, 2*len(insertedIDs))
	for _, id := range insertedIDs {
		e := g.edges[id]
		ins = append(ins, rowArc{e.U, Arc{To: e.V, ID: id}}, rowArc{e.V, Arc{To: e.U, ID: id}})
	}
	// Stable: a row's inserted arcs stay in ascending id order.
	slices.SortStableFunc(ins, func(a, b rowArc) int { return cmp.Compare(a.row, b.row) })

	n, arcOff, arcs := g.n, g.arcOff, g.arcs
	inPlace := src == nil
	if deletes || !inPlace {
		pending := ins // the inserted arcs the pass writes
		if inPlace {
			src, pending = arcs, nil
		}
		w, start := int32(0), arcOff[0]
		for u := 0; u < n; u++ {
			end := arcOff[u+1]
			arcOff[u] = w
			for _, a := range src[start:end] {
				if id := oldToNew[a.ID]; id >= 0 {
					arcs[w] = Arc{To: a.To, ID: int(id)}
					w++
				}
			}
			for ; len(pending) > 0 && pending[0].row == u; pending = pending[1:] {
				arcs[w] = pending[0].arc
				w++
			}
			start = end
		}
		arcOff[n] = w
		arcs = arcs[:w]
	}
	if len(ins) == 0 || !inPlace {
		g.arcs = arcs
		return
	}

	end, shift := len(arcs), len(ins)
	arcs = slices.Grow(arcs, shift)[:end+shift]
	for i := len(ins) - 1; i >= 0; {
		u := ins[i].row
		rowEnd := int(arcOff[u+1])
		copy(arcs[rowEnd+shift:], arcs[rowEnd:end])
		for ; i >= 0 && ins[i].row == u; i-- {
			shift--
			arcs[rowEnd+shift] = ins[i].arc
		}
		end = rowEnd
	}
	added := int32(0)
	for u, j := ins[0].row, 0; u < n; u++ {
		for ; j < len(ins) && ins[j].row == u; j++ {
			added++
		}
		arcOff[u+1] += added
	}
	g.arcs = arcs
}

// EditLog accumulates applied edit batches over a base graph so a storage
// layer can reconstruct the current graph from the base plus the log (the
// patch log behind evict/reload), compacting — rewriting the base and
// resetting the log — on whatever schedule it chooses.
type EditLog struct {
	batches [][]EdgeEdit
	edits   int
}

// Append records one applied batch. The slice is copied, so callers may
// reuse their buffer.
func (l *EditLog) Append(batch []EdgeEdit) {
	l.batches = append(l.batches, append([]EdgeEdit(nil), batch...))
	l.edits += len(batch)
}

// Batches reports how many batches the log holds.
func (l *EditLog) Batches() int { return len(l.batches) }

// Edits reports the total edit count across all batches.
func (l *EditLog) Edits() int { return l.edits }

// Snapshot returns a copy of the batch list safe to replay outside whatever
// lock guards the log (the batches themselves are immutable once appended).
func (l *EditLog) Snapshot() [][]EdgeEdit {
	if len(l.batches) == 0 {
		return nil
	}
	return append([][]EdgeEdit(nil), l.batches...)
}

// Replay applies the logged batches to base in order and returns the result.
func (l *EditLog) Replay(base *Graph) (*Graph, error) {
	return ReplayEdits(base, l.batches)
}

// Reset empties the log (after compaction rewrote the base).
func (l *EditLog) Reset() { l.batches, l.edits = nil, 0 }

// ReplayEdits applies a sequence of edit batches to base in order.
func ReplayEdits(base *Graph, batches [][]EdgeEdit) (*Graph, error) {
	g := base
	for i, batch := range batches {
		res, err := ApplyEdits(g, batch)
		if err != nil {
			return nil, fmt.Errorf("ugraph: replaying edit batch %d/%d: %w", i+1, len(batches), err)
		}
		g = res.Graph
	}
	return g, nil
}
