package ugraph

import "fmt"

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

// EditResult is the outcome of ApplyEdits: the post-edit graph plus the edge
// identifier mapping a consumer of the old graph's ids needs to carry its
// per-edge state across the edit.
type EditResult struct {
	// Graph is the post-edit graph. The input graph is never modified.
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
// reported in the result.
func ApplyEdits(g *Graph, edits []EdgeEdit) (*EditResult, error) {
	if len(edits) == 0 {
		return nil, &EditError{Index: -1, Reason: "empty edit batch"}
	}
	n := g.NumVertices()
	seen := make(map[uint64]struct{}, len(edits))
	ids := make([]int, len(edits)) // resolved edge id of each delete/reweight
	inserts := 0
	structural := false
	for i, ed := range edits {
		fail := func(reason string) error {
			return &EditError{Index: i, Edit: ed, Reason: reason}
		}
		if ed.U < 0 || ed.U >= n || ed.V < 0 || ed.V >= n {
			return nil, fail(fmt.Sprintf("endpoint out of range [0,%d)", n))
		}
		if ed.U == ed.V {
			return nil, fail("self-loop")
		}
		k := pairKey(ed.U, ed.V)
		if _, dup := seen[k]; dup {
			return nil, fail("duplicate edge pair in batch")
		}
		seen[k] = struct{}{}
		id, exists := g.EdgeID(ed.U, ed.V)
		ids[i] = id
		switch ed.Op {
		case EditInsert:
			if exists {
				return nil, fail("edge already exists (use reweight)")
			}
			if !(ed.P > 0 && ed.P <= 1) {
				return nil, fail(fmt.Sprintf("probability %v outside (0,1]", ed.P))
			}
			inserts++
			structural = true
		case EditDelete:
			if !exists {
				return nil, fail("edge does not exist")
			}
			structural = true
		case EditReweight:
			if !exists {
				return nil, fail("edge does not exist (use insert)")
			}
			if !(ed.P > 0 && ed.P <= 1) {
				if ed.P == 0 {
					return nil, fail("probability 0 (use delete)")
				}
				return nil, fail(fmt.Sprintf("probability %v outside (0,1]", ed.P))
			}
		default:
			return nil, fail(fmt.Sprintf("unknown op %d", int(ed.Op)))
		}
	}
	if structural {
		return applyStructural(g, edits, ids, inserts), nil
	}
	return applyReweights(g, edits, ids), nil
}

// applyReweights handles a reweight-only batch: identifiers are stable, so
// only the edge records change. Heap inputs share their CSR adjacency
// (immutable after construction); mapped inputs are fully copied onto the
// heap. ids holds the resolved edge id of each edit.
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

// applyStructural handles a batch with inserts or deletes: the edge list is
// copied once, reweighted and compacted in place (survivors keep their
// relative order) and inserts are appended in batch order. ids holds the
// resolved edge id of each delete and reweight.
//
// The CSR is derived row by row from the old one rather than rebuilt: a
// survivor's new id is monotone in its old id, so each row's surviving arcs
// stay in ascending id order, and inserted edges carry the highest ids, so
// they go at the end of their rows. That is exactly the layout
// buildAdjacency produces for the new edge list.
func applyStructural(g *Graph, edits []EdgeEdit, ids []int, inserts int) *EditResult {
	m := len(g.edges)
	edges := make([]Edge, m, m+inserts)
	copy(edges, g.edges)
	oldToNew := make([]int32, m)
	for i, ed := range edits {
		switch ed.Op {
		case EditDelete:
			oldToNew[ids[i]] = -1
		case EditReweight:
			edges[ids[i]].P = ed.P
		}
	}
	kept := 0
	for id := range oldToNew {
		if oldToNew[id] < 0 {
			continue
		}
		oldToNew[id] = int32(kept)
		edges[kept] = edges[id]
		kept++
	}
	edges = edges[:kept]
	insertedIDs := make([]int, 0, inserts)
	for _, ed := range edits {
		if ed.Op != EditInsert {
			continue
		}
		u, v := ed.U, ed.V
		if u > v {
			u, v = v, u
		}
		insertedIDs = append(insertedIDs, len(edges))
		edges = append(edges, Edge{U: u, V: v, P: ed.P})
	}

	// Row offsets: each old degree, less deleted arcs, plus inserted ones.
	n := g.n
	arcOff := make([]int32, n+1)
	for i, ed := range edits {
		if ed.Op == EditDelete {
			e := g.edges[ids[i]]
			arcOff[e.U+1]--
			arcOff[e.V+1]--
		}
	}
	for _, id := range insertedIDs {
		arcOff[edges[id].U+1]++
		arcOff[edges[id].V+1]++
	}
	for u := 0; u < n; u++ {
		arcOff[u+1] += arcOff[u] + g.arcOff[u+1] - g.arcOff[u]
	}
	arcs := make([]Arc, 2*len(edges))
	next := make([]int32, n) // first free slot of each row after its survivors
	for u := 0; u < n; u++ {
		w := arcOff[u]
		for _, a := range g.arcs[g.arcOff[u]:g.arcOff[u+1]] {
			if id := oldToNew[a.ID]; id >= 0 {
				arcs[w] = Arc{To: a.To, ID: int(id)}
				w++
			}
		}
		next[u] = w
	}
	for _, id := range insertedIDs {
		e := edges[id]
		arcs[next[e.U]] = Arc{To: e.V, ID: id}
		next[e.U]++
		arcs[next[e.V]] = Arc{To: e.U, ID: id}
		next[e.V]++
	}
	ng := &Graph{n: n, edges: edges, arcOff: arcOff, arcs: arcs}
	return &EditResult{Graph: ng, OldToNew: oldToNew, InsertedIDs: insertedIDs, Structural: true}
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
