package serve

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ugs"
)

// writeUgsbDir writes count binary graphs g0..g{count-1} into a fresh dir
// and returns the dir and the per-graph file size (identical configs give
// identical sizes).
func writeUgsbDir(t *testing.T, count int) (string, int64) {
	t.Helper()
	dir := t.TempDir()
	var size int64
	for i := 0; i < count; i++ {
		g := ugs.FlickrLike(120, int64(i+1))
		path := filepath.Join(dir, fmt.Sprintf("g%d.ugsb", i))
		if err := ugs.WriteBinaryGraphFile(path, g); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > size {
			size = st.Size()
		}
	}
	return dir, size
}

func TestStoreEvictionUnderBudget(t *testing.T) {
	dir, size := writeUgsbDir(t, 4)
	s := NewStore(StoreConfig{BudgetBytes: 2*size + size/2}) // fits 2, not 3
	t.Cleanup(func() { s.Close() })
	names, err := s.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("loaded %v", names)
	}

	// Touch every graph repeatedly: each acquire of an evicted graph must
	// transparently remap it.
	want := make(map[string]float64)
	for _, name := range names {
		g, id, release, err := s.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		if id != name+"@1" {
			t.Fatalf("id %q, want %s@1", id, name)
		}
		want[name] = g.TotalProb()
		release()
	}
	for round := 0; round < 3; round++ {
		for _, name := range names {
			g, id, release, err := s.Acquire(name)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			// Generations survive eviction: the file bytes never changed,
			// so cached results keyed on name@1 stay valid.
			if id != name+"@1" {
				t.Fatalf("round %d: id %q changed", round, id)
			}
			if g.TotalProb() != want[name] {
				t.Fatalf("round %d: %s content changed after remap", round, name)
			}
			release()
		}
	}

	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite budget < working set")
	}
	if st.ResidentBytes > 2*size+size/2 {
		t.Fatalf("resident %d bytes exceeds budget with nothing pinned", st.ResidentBytes)
	}
	if st.Registered != 4 {
		t.Fatalf("registered %d", st.Registered)
	}
}

func TestStorePinnedSurvivesEviction(t *testing.T) {
	dir, size := writeUgsbDir(t, 3)
	s := NewStore(StoreConfig{BudgetBytes: size + size/2}) // fits 1
	t.Cleanup(func() { s.Close() })
	if _, err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}

	g0, _, release0, err := s.Acquire("g0")
	if err != nil {
		t.Fatal(err)
	}
	sum := g0.TotalProb()

	// Loading the others overshoots the budget because g0 is pinned; its
	// mapping must stay valid throughout.
	for _, name := range []string{"g1", "g2"} {
		g, _, release, err := s.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		_ = g.TotalProb()
		release()
	}
	if st := s.Stats(); st.Pinned != 1 {
		t.Fatalf("pinned %d, want 1", st.Pinned)
	}
	if got := g0.TotalProb(); got != sum {
		t.Fatalf("pinned graph changed under eviction pressure: %v != %v", got, sum)
	}
	release0()
	release0() // idempotent

	// After the pin drops, re-acquiring g0 still works (remapped if it was
	// dropped at release).
	g0b, _, releaseB, err := s.Acquire("g0")
	if err != nil {
		t.Fatal(err)
	}
	defer releaseB()
	if g0b.TotalProb() != sum {
		t.Fatal("g0 content changed after release/reacquire")
	}
}

func TestStoreGenerationBumpsOnFileChange(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ugsb")
	if err := ugs.WriteBinaryGraphFile(path, ugs.FlickrLike(60, 1)); err != nil {
		t.Fatal(err)
	}
	s := NewStore(StoreConfig{BudgetBytes: 1}) // evict everything unpinned
	t.Cleanup(func() { s.Close() })
	if _, err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}

	_, id, release, err := s.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if id != "a@1" {
		t.Fatalf("id %q", id)
	}

	// Same bytes → same generation after the eviction/remap cycle.
	if _, id, release, err = s.Acquire("a"); err != nil {
		t.Fatal(err)
	}
	release()
	if id != "a@1" {
		t.Fatalf("unchanged file bumped generation: %q", id)
	}

	// Replace the file with different content: the next acquire must see a
	// new generation, so cached results against a@1 cannot be served.
	if err := ugs.WriteBinaryGraphFile(path, ugs.FlickrLike(80, 2)); err != nil {
		t.Fatal(err)
	}
	g, id, release, err := s.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if id != "a@2" {
		t.Fatalf("id %q after file change, want a@2", id)
	}
	if g.NumVertices() != 80 {
		t.Fatalf("stale mapping after file change: %v", g)
	}
}

func TestStoreTextConversionAndShadowing(t *testing.T) {
	g := ugs.TwitterLike(70, 3)
	dir := t.TempDir()
	if err := ugs.WriteGraphFile(filepath.Join(dir, "t.ugs"), g); err != nil {
		t.Fatal(err)
	}
	// A same-name binary must shadow the text file.
	shadow := ugs.FlickrLike(50, 9)
	if err := ugs.WriteGraphFile(filepath.Join(dir, "b.ugs"), ugs.TwitterLike(40, 4)); err != nil {
		t.Fatal(err)
	}
	if err := ugs.WriteBinaryGraphFile(filepath.Join(dir, "b.ugsb"), shadow); err != nil {
		t.Fatal(err)
	}

	s := NewStore(StoreConfig{ConvertDir: filepath.Join(dir, "sidecars")})
	t.Cleanup(func() { s.Close() })
	names, err := s.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("names %v", names)
	}

	tg, _, release, err := s.Acquire("t")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if !tg.Mapped() {
		t.Fatal("text graph was not converted to a mapped sidecar")
	}
	if !tg.Equal(g) {
		t.Fatal("converted graph differs from the text original")
	}

	bg, _, releaseB, err := s.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	defer releaseB()
	if bg.NumVertices() != shadow.NumVertices() {
		t.Fatal("binary file did not shadow the same-name text file")
	}

	if st := s.Stats(); st.Conversions != 1 {
		t.Fatalf("conversions %d, want 1", st.Conversions)
	}
}

func TestStoreUploadSpillEvictable(t *testing.T) {
	dir, size := writeUgsbDir(t, 2)
	s := NewStore(StoreConfig{BudgetBytes: size + size/2})
	t.Cleanup(func() { s.Close() })
	if _, err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}

	// An added (uploaded) heap graph spills to a sidecar, so it too can be
	// evicted and remapped.
	up := ugs.TwitterLike(150, 5)
	if err := s.Add("up", up); err != nil {
		t.Fatal(err)
	}
	sum := up.TotalProb()
	// Cycle the others to push "up" out.
	for round := 0; round < 2; round++ {
		for _, name := range []string{"g0", "g1"} {
			_, _, release, err := s.Acquire(name)
			if err != nil {
				t.Fatal(err)
			}
			release()
		}
	}
	g, id, release, err := s.Acquire("up")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if id != "up@1" {
		t.Fatalf("id %q", id)
	}
	if g.TotalProb() != sum {
		t.Fatal("spilled upload reloaded with different content")
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("expected evictions under budget pressure")
	}
}

// TestStoreCompactionFailureCounted: when the patch-log compaction cannot
// write its sidecar (here the convert directory sits under a regular file),
// the failure is counted and the graph is still served at its patched
// version from the old base file + log.
func TestStoreCompactionFailureCounted(t *testing.T) {
	dir, _ := writeUgsbDir(t, 1)
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(StoreConfig{ConvertDir: filepath.Join(blocker, "convert")})
	t.Cleanup(func() { s.Close() })
	if _, err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	g, _, release, err := s.Acquire("g0")
	if err != nil {
		t.Fatal(err)
	}
	edges := []ugs.Edge{g.Edge(0), g.Edge(1), g.Edge(2), g.Edge(3)}
	release()
	for i, e := range edges {
		if _, _, err := s.Patch(context.Background(), "g0", []ugs.EdgeEdit{
			{Op: ugs.EditReweight, U: e.U, V: e.V, P: 0.5},
		}, 0); err != nil {
			t.Fatalf("patch %d: %v", i+1, err)
		}
	}
	if got := s.Stats().CompactionFailures; got != 1 {
		t.Errorf("compaction failures %d, want 1", got)
	}
	// Evict and reload: the patched version must come back from the base
	// file + the log the failed compaction left in place.
	s.mu.Lock()
	s.dropResidentLocked(s.entries["g0"])
	s.mu.Unlock()
	pg, id, release, err := s.Acquire("g0")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if id != "g0@5" {
		t.Errorf("id %q, want g0@5", id)
	}
	for _, e := range edges {
		if eid, ok := pg.EdgeID(e.U, e.V); !ok || pg.Prob(eid) != 0.5 {
			t.Errorf("edge (%d,%d) lost its patch", e.U, e.V)
		}
	}
}

// TestStoreConcurrentChurn hammers Acquire/release across goroutines with a
// budget that forces continuous eviction and remapping; run under -race it
// checks the pinning protocol (no unmap under a reader, no double close).
func TestStoreConcurrentChurn(t *testing.T) {
	dir, size := writeUgsbDir(t, 4)
	s := NewStore(StoreConfig{BudgetBytes: size + size/2})
	t.Cleanup(func() { s.Close() })
	names, err := s.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	want := make(map[string]float64)
	for _, name := range names {
		g, _, release, err := s.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = g.TotalProb()
		release()
	}

	const workers = 8
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				name := names[rng.Intn(len(names))]
				g, _, release, err := s.Acquire(name)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
				if g.TotalProb() != want[name] {
					errs <- fmt.Errorf("%s: content changed under churn", name)
					release()
					return
				}
				release()
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("churn produced no evictions; budget not exercised")
	}
	if st.Pinned != 0 {
		t.Errorf("pins leaked: %d", st.Pinned)
	}
}
