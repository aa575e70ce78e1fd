package ugraph

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ugs/internal/ugsb"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(7)
	edges := []struct {
		u, v int
		p    float64
	}{
		{0, 1, 0.5}, {1, 2, 0.25}, {2, 3, 1}, {3, 4, 0.125},
		{4, 5, 0.875}, {5, 6, 0.0625}, {0, 6, 0.99}, {2, 5, 0.01},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.p); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Graph()
	g.SetProb(3, 0) // binary format must preserve p = 0 edges losslessly
	return g
}

func writeTempBinary(t *testing.T, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.ugsb")
	if err := WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBinaryRoundTripMapped(t *testing.T) {
	g := testGraph(t)
	m, err := OpenMapped(writeTempBinary(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if !m.ReadOnly() || !m.Mapped() {
		t.Fatalf("mapped graph: ReadOnly=%v Mapped=%v, want true/true", m.ReadOnly(), m.Mapped())
	}
	if !g.Equal(m) {
		t.Fatalf("mapped graph not Equal to original:\n%v\n%v", g, m)
	}
	// CSR accessors must agree exactly.
	for u := 0; u < g.NumVertices(); u++ {
		if g.Degree(u) != m.Degree(u) {
			t.Fatalf("Degree(%d): %d != %d", u, g.Degree(u), m.Degree(u))
		}
		gn, mn := g.Neighbors(u), m.Neighbors(u)
		for i := range gn {
			if gn[i] != mn[i] {
				t.Fatalf("Neighbors(%d)[%d]: %v != %v", u, i, gn[i], mn[i])
			}
		}
	}
	for i, o := range g.ArcOffsets() {
		if m.ArcOffsets()[i] != o {
			t.Fatalf("ArcOffsets[%d]: %d != %d", i, m.ArcOffsets()[i], o)
		}
	}
	// EdgeID scans the mapped view's CSR rows.
	for _, e := range g.Edges() {
		id, ok := m.EdgeID(e.U, e.V)
		want, _ := g.EdgeID(e.U, e.V)
		if !ok || id != want {
			t.Fatalf("EdgeID(%d,%d) = %d,%v want %d,true", e.U, e.V, id, ok, want)
		}
	}
	if m.HasEdge(0, 3) {
		t.Fatal("HasEdge(0,3) = true on mapped view, want false")
	}
}

func TestMappedGraphIsImmutable(t *testing.T) {
	g := testGraph(t)
	m, err := OpenMapped(writeTempBinary(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetProb on mapped graph did not panic")
			}
		}()
		m.SetProb(0, 0.1)
	}()

	c := m.Clone()
	if c.ReadOnly() || c.Mapped() {
		t.Fatal("Clone of mapped graph should be writable and heap-resident")
	}
	c.SetProb(0, 0.1)
	if m.Prob(0) == 0.1 {
		t.Fatal("mutating the clone leaked into the mapping")
	}
	if !g.Equal(m) {
		t.Fatal("mapped view changed")
	}
}

func TestOpenMappedTrusted(t *testing.T) {
	g := testGraph(t)
	path := writeTempBinary(t, g)
	m, err := OpenMappedTrusted(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !g.Equal(m) {
		t.Fatal("trusted open: not Equal to original")
	}
}

func TestWriteBinaryMatchesStreamingWriter(t *testing.T) {
	// WriteBinary (dumping an in-memory CSR) and ugsb.Writer (streaming
	// construction) must produce byte-identical files for the same edge
	// sequence.
	g := testGraph(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "w.ugsb")
	w, err := ugsb.Create(path, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if err := w.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), streamed) {
		t.Fatalf("WriteBinary and ugsb.Writer bytes differ: %d vs %d bytes", buf.Len(), len(streamed))
	}
}

func TestBinaryRoundTripSampling(t *testing.T) {
	// Sampling kernels must be bit-identical over the mapped view.
	g := testGraph(t)
	m, err := OpenMapped(writeTempBinary(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	wg, wm := NewWorld(g), NewWorld(m)
	for seed := int64(0); seed < 32; seed++ {
		g.SampleWorldSeeded(seed, wg)
		m.SampleWorldSeeded(seed, wm)
		for id := 0; id < g.NumEdges(); id++ {
			if wg.Present(id) != wm.Present(id) {
				t.Fatalf("seed %d edge %d: heap %v != mapped %v", seed, id, wg.Present(id), wm.Present(id))
			}
		}
	}

	seeds := make([]int64, BatchLanes)
	for i := range seeds {
		seeds[i] = int64(i) * 7
	}
	bg, bm := NewWorldBatch[Vec64](g), NewWorldBatch[Vec64](m)
	SampleBatchSeeded(g, seeds, bg)
	SampleBatchSeeded(m, seeds, bm)
	for id := 0; id < g.NumEdges(); id++ {
		if bg.LaneMask(id) != bm.LaneMask(id) {
			t.Fatalf("batch edge %d: %x != %x", id, bg.LaneMask(id), bm.LaneMask(id))
		}
	}
}

func TestOpenMappedRejectsCorruption(t *testing.T) {
	g := testGraph(t)
	path := writeTempBinary(t, g)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(t *testing.T, mutate func([]byte)) string {
		t.Helper()
		b := bytes.Clone(orig)
		mutate(b)
		p := filepath.Join(t.TempDir(), "c.ugsb")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"magic", func(b []byte) { b[0] = 'X' }},
		{"version", func(b []byte) { b[4] = 99 }},
		{"header-field", func(b []byte) { b[16]++ }}, // n changes, header CRC mismatch
		{"section-byte", func(b []byte) { b[90]++ }}, // edge record byte, data CRC mismatch
		{"truncated", func(b []byte) { b[56] = 0 }},  // file size field
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := OpenMapped(corrupt(t, tc.mutate)); err == nil {
				t.Fatal("OpenMapped accepted a corrupt file")
			}
		})
	}

	t.Run("short", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "s.ugsb")
		if err := os.WriteFile(p, orig[:40], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(p); err == nil {
			t.Fatal("OpenMapped accepted a truncated file")
		}
	})
}

func TestReadLimits(t *testing.T) {
	hostile := []byte("20000000 3\n0 1 0.5\n1 2 0.5\n2 3 0.5\n")
	if _, err := Read(bytes.NewReader(hostile)); err == nil {
		t.Fatal("strict Read accepted a 2e7-vertex header")
	}
	g, err := ReadWithLimits(bytes.NewReader(hostile), ReadLimits{MaxVertices: 1 << 26})
	if err != nil {
		t.Fatalf("raised limits rejected a legal graph: %v", err)
	}
	if g.NumVertices() != 20000000 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
	// Edge limit is independent of the vertex limit.
	if _, err := ReadWithLimits(bytes.NewReader(hostile), ReadLimits{MaxVertices: 1 << 26, MaxEdges: 2}); err == nil {
		t.Fatal("MaxEdges=2 accepted 3 edges")
	}
}
