package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"ugs"
	"ugs/internal/faults"
)

// Store holds the uncertain graphs the service can sparsify and query, under
// a configurable resident-bytes budget.
//
// Graphs are backed by .ugsb files wherever possible: binary files in the
// graph directory are opened as memory mappings (load = mmap + header check,
// no parsing), text files are transparently converted to a .ugsb sidecar on
// first load and then mapped, and uploaded graphs are spilled to a sidecar
// so they too can be evicted. When the resident bytes exceed the budget, the
// least-recently-used unpinned graph is dropped — its mapping is released
// and the page cache reclaims the memory — and reloaded on demand by the
// next request that names it (an mmap, not a re-parse).
//
// Requests access graphs through Acquire, which pins the resident mapping
// with a refcount: an evicted graph is never unmapped while an in-flight
// sparsify or query still reads it; the last release closes it.
//
// Generations survive eviction. A name's generation bumps only when its
// bytes actually change (re-upload, or the backing file's size/mtime
// fingerprint differing on reload), so cached sparsify and query results —
// keyed by "name@gen" — stay coherent across evict/reload cycles.
type Store struct {
	cfg StoreConfig
	now func() time.Time // injectable clock for quarantine tests

	mu            sync.Mutex
	entries       map[string]*storeEntry
	clock         uint64
	residentBytes int64
	loads         int64
	loadFailures  int64
	quarRejects   int64
	evictions     int64
	conversions   int64
	compactFails  int64
	patches       int64
	convertDir    string
	ownsConvert   bool
	closed        bool
}

// StoreConfig tunes a Store.
type StoreConfig struct {
	// BudgetBytes caps the resident graph bytes; 0 means unlimited. The
	// budget is enforced at admission: loading a graph evicts unpinned
	// residents LRU-first until under budget. Pinned graphs are never
	// evicted, so concurrent pins can transiently overshoot.
	BudgetBytes int64
	// ConvertDir holds .ugsb sidecars converted from text graphs and
	// spilled uploads. Empty means a temporary directory created on first
	// use and removed by Close.
	ConvertDir string
	// QuarantineBase and QuarantineMax bound the exponential backoff for
	// load-failure quarantine: after the n-th consecutive failure a name is
	// quarantined for min(Base·2ⁿ⁻¹, Max). Zero means 1s and 60s.
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	// Faults optionally injects deterministic failures at the store.open
	// and store.read points (nil = no injection).
	Faults *faults.Injector
}

type storeEntry struct {
	name     string
	gen      int
	info     GraphInfo
	path     string // .ugsb backing file; "" = heap-only, unevictable
	sidecar  bool   // path is store-owned (converted/spilled)
	verified bool   // a full-validation open of fp's bytes has succeeded
	fp       fileFP
	res      *resident     // nil while evicted
	loading  chan struct{} // non-nil while a reload is in flight
	quar     *quarantineState
	lastUse  uint64
	// log holds the edit batches applied since path was last written: the
	// backing file plus the log reconstructs the current generation, so
	// patched graphs stay evictable. Compaction rewrites the sidecar and
	// resets the log every patchCompactBatches batches.
	log ugs.EditLog
}

// patchCompactBatches is how many patch batches accumulate against one
// backing file before the store rewrites the sidecar and resets the log
// (bounding replay work on reload).
const patchCompactBatches = 4

// ErrPatchConflict reports that a patch lost a race: the graph it was
// prepared against was replaced, reloaded with changed bytes, or is not at
// the version the caller demanded.
var ErrPatchConflict = errors.New("patch conflict")

// quarantineState is the negative cache for a name whose backing file is
// failing to load: while now < until, Acquire rejects without touching the
// file (a corrupt .ugsb is not re-validated per request). The fingerprint
// recorded at the last failure lets a fixed file clear quarantine early —
// if a stat shows different bytes on disk, the next Acquire probes
// immediately instead of waiting out the backoff.
type quarantineState struct {
	failures int
	lastErr  error
	until    time.Time
	fp       fileFP // fingerprint at the last failed probe (zero if unstattable)
}

// ErrQuarantined reports that a graph's backing file is failing to load and
// the name is under backoff. Returned wrapped in a *QuarantineError.
var ErrQuarantined = errors.New("graph quarantined")

// QuarantineError carries the quarantine details the server needs to build a
// typed 503 with Retry-After.
type QuarantineError struct {
	Name     string
	Failures int
	Until    time.Time
	Err      error // the last load failure
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("graph %q quarantined after %d load failure(s), retry after %s: %v",
		e.Name, e.Failures, e.Until.Format(time.RFC3339), e.Err)
}

// Unwrap makes errors.Is(err, ErrQuarantined) hold.
func (e *QuarantineError) Unwrap() error { return ErrQuarantined }

// resident is the in-memory incarnation of a graph. It is separate from the
// entry so that an evicted-but-pinned graph outlives its slot: eviction
// marks it dropped, and the final release (refs → 0) closes the mapping.
type resident struct {
	g       *ugs.Graph
	bytes   int64
	refs    int
	dropped bool
}

// fileFP fingerprints a backing file; a changed fingerprint on reload means
// the bytes may differ, so the generation bumps and validation reruns.
type fileFP struct {
	size  int64
	mtime int64
}

func statFP(path string) (fileFP, error) {
	st, err := os.Stat(path)
	if err != nil {
		return fileFP{}, err
	}
	return fileFP{size: st.Size(), mtime: st.ModTime().UnixNano()}, nil
}

// ErrUnknownGraph reports that no graph is registered under the given name.
var ErrUnknownGraph = errors.New("unknown graph")

// graphNameRE constrains graph names to path- and cache-key-safe tokens.
var graphNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// NewStore returns an empty store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.QuarantineBase <= 0 {
		cfg.QuarantineBase = time.Second
	}
	if cfg.QuarantineMax <= 0 {
		cfg.QuarantineMax = time.Minute
	}
	return &Store{cfg: cfg, now: time.Now, entries: make(map[string]*storeEntry)}
}

// quarBackoff is the quarantine duration after the n-th consecutive failure.
func (s *Store) quarBackoff(failures int) time.Duration {
	d := s.cfg.QuarantineBase
	for i := 1; i < failures && d < s.cfg.QuarantineMax; i++ {
		d *= 2
	}
	if d > s.cfg.QuarantineMax {
		d = s.cfg.QuarantineMax
	}
	return d
}

// ioFaults evaluates the store's fault-injection points, in order: an open
// failure, then a read stall (or failure). No-ops without an injector.
func (s *Store) ioFaults() error {
	if err := s.cfg.Faults.Check("store.open"); err != nil {
		return err
	}
	return s.cfg.Faults.Check("store.read")
}

func (s *Store) tickLocked() uint64 {
	s.clock++
	return s.clock
}

// convertDirLocked returns (creating if needed) the sidecar directory.
func (s *Store) convertDirLocked() (string, error) {
	if s.convertDir != "" {
		return s.convertDir, nil
	}
	if s.cfg.ConvertDir != "" {
		if err := os.MkdirAll(s.cfg.ConvertDir, 0o755); err != nil {
			return "", err
		}
		s.convertDir = s.cfg.ConvertDir
		return s.convertDir, nil
	}
	dir, err := os.MkdirTemp("", "ugs-store-*")
	if err != nil {
		return "", err
	}
	s.convertDir, s.ownsConvert = dir, true
	return dir, nil
}

// heapGraphBytes estimates the resident footprint of a heap CSR graph: the
// edge records, offset table and arc array (the same sections a .ugsb file
// holds, so heap and mapped charges are comparable).
func heapGraphBytes(g *ugs.Graph) int64 {
	n, m := int64(g.NumVertices()), int64(g.NumEdges())
	return 24*m + 4*(n+1) + 32*m
}

// Add registers (or replaces) a graph under name, bumping its generation.
// When a budget is configured the graph is spilled to a .ugsb sidecar so it
// is evictable; if spilling fails the graph stays resident unevictably.
func (s *Store) Add(name string, g *ugs.Graph) error {
	if !graphNameRE.MatchString(name) {
		return fmt.Errorf("serve: invalid graph name %q (want %s)", name, graphNameRE)
	}
	info := Info(name, g)
	bytes := heapGraphBytes(g)

	// Spill outside the lock: writing a large sidecar must not stall
	// concurrent queries. The temp file is renamed into place under the
	// lock once the generation is known.
	var tmp string
	if s.cfg.BudgetBytes > 0 {
		s.mu.Lock()
		dir, derr := s.convertDirLocked()
		s.mu.Unlock()
		if derr == nil {
			if f, err := os.CreateTemp(dir, name+".*.tmp"); err == nil {
				tmp = f.Name()
				werr := ugs.WriteBinaryGraph(f, g)
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					os.Remove(tmp)
					tmp = ""
				}
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if tmp != "" {
			os.Remove(tmp)
		}
		return errors.New("serve: store closed")
	}
	gen := 1
	if prev, ok := s.entries[name]; ok {
		gen = prev.gen + 1
		s.removeEntryLocked(prev)
	}
	e := &storeEntry{name: name, gen: gen, info: info, lastUse: s.tickLocked()}
	if tmp != "" {
		final := filepath.Join(filepath.Dir(tmp), fmt.Sprintf("%s.g%d.ugsb", name, gen))
		if err := os.Rename(tmp, final); err == nil {
			if fp, err := statFP(final); err == nil {
				e.path, e.sidecar, e.verified, e.fp = final, true, true, fp
				s.conversions++
			} else {
				os.Remove(final)
			}
		} else {
			os.Remove(tmp)
		}
	}
	e.res = &resident{g: g, bytes: bytes}
	s.entries[name] = e
	s.residentBytes += bytes
	s.evictLocked(e)
	return nil
}

// AddReader parses the text interchange format from r and registers the
// graph under name.
func (s *Store) AddReader(name string, r io.Reader) (*ugs.Graph, error) {
	g, err := ugs.ReadGraph(r)
	if err != nil {
		return nil, err
	}
	if err := s.Add(name, g); err != nil {
		return nil, err
	}
	return g, nil
}

// Patch applies one atomic edit batch to the graph registered under name and
// bumps its generation, so every cached result keyed by "name@gen" — sparsify
// plans, query answers, world-cache fill blocks — is unreachable for the
// patched graph. It returns the post-patch summary and generation.
//
// expectGen, when non-zero, is an optimistic-concurrency precondition: the
// patch applies only if the graph is currently at that generation, otherwise
// ErrPatchConflict. The edits are validated and applied outside the store
// lock against a pinned snapshot; if the entry changed in the meantime (a
// re-upload, a concurrent reload with changed bytes) the patch also fails
// with ErrPatchConflict rather than silently applying to the wrong bytes.
//
// A patched graph stays evictable: the edit batch is appended to the entry's
// log, and a reload replays the log over the backing file. Every
// patchCompactBatches batches the store compacts — rewrites the sidecar at
// the current generation and resets the log.
func (s *Store) Patch(ctx context.Context, name string, edits []ugs.EdgeEdit, expectGen int) (GraphInfo, int, error) {
	g, _, release, err := s.AcquireCtx(ctx, name)
	if err != nil {
		return GraphInfo{}, 0, err
	}
	defer release()

	// Evaluate the version precondition before validating the edits: a
	// stale client's batch may well be invalid against the newer state, and
	// it should learn about the race (409), not about validation artifacts
	// of applying its batch to bytes it never saw (400).
	if expectGen != 0 {
		s.mu.Lock()
		e, ok := s.entries[name]
		if ok && e.gen != expectGen {
			gen := e.gen
			s.mu.Unlock()
			return GraphInfo{}, 0, fmt.Errorf("%w: graph %q is at version %d, patch expects %d", ErrPatchConflict, name, gen, expectGen)
		}
		s.mu.Unlock()
	}

	// Validate + apply outside the lock: a large structural batch rebuilds
	// the CSR and must not stall concurrent acquires.
	res, err := ugs.ApplyEdits(g, edits)
	if err != nil {
		return GraphInfo{}, 0, err
	}
	ng := res.Graph
	bytes := heapGraphBytes(ng)

	s.mu.Lock()
	e, ok := s.entries[name]
	switch {
	case s.closed:
		s.mu.Unlock()
		return GraphInfo{}, 0, errors.New("serve: store closed")
	case !ok || e.res == nil || e.res.g != g:
		// The name was re-registered, or evicted and reloaded from changed
		// bytes, after we pinned our snapshot.
		s.mu.Unlock()
		return GraphInfo{}, 0, fmt.Errorf("%w: graph %q changed while the patch was prepared", ErrPatchConflict, name)
	case expectGen != 0 && expectGen != e.gen:
		gen := e.gen
		s.mu.Unlock()
		return GraphInfo{}, 0, fmt.Errorf("%w: graph %q is at version %d, patch expects %d", ErrPatchConflict, name, gen, expectGen)
	}
	s.dropResidentLocked(e) // our pin keeps the old mapping alive until release
	e.gen++
	e.info = Info(name, ng)
	e.res = &resident{g: ng, bytes: bytes}
	e.lastUse = s.tickLocked()
	s.residentBytes += bytes
	s.patches++
	var compactPin *resident
	if e.path != "" {
		e.log.Append(edits)
		if e.log.Batches() >= patchCompactBatches {
			compactPin = e.res
			compactPin.refs++ // keep ng resident while the sidecar is written
		}
	}
	info, gen := e.info, e.gen
	s.evictLocked(e)
	s.mu.Unlock()

	if compactPin != nil {
		s.compactEntry(name, e, ng, gen)
		s.release(compactPin)
	}
	return info, gen, nil
}

// compactEntry rewrites an entry's backing sidecar at generation gen and
// resets its patch log, bounding future reload-replay work. A failure to
// create the convert directory, write the sidecar or stat it is counted
// (StoreStats.CompactionFailures) and otherwise tolerated: the old base +
// log remain a valid reconstruction. The swap is abandoned uncounted if the
// entry moved on (replaced, or patched again — whichever patch crosses the
// threshold next re-compacts).
func (s *Store) compactEntry(name string, e *storeEntry, g *ugs.Graph, gen int) {
	s.mu.Lock()
	dir, err := s.convertDirLocked()
	if err != nil {
		s.compactFails++
	}
	s.mu.Unlock()
	if err != nil {
		return
	}
	side := filepath.Join(dir, fmt.Sprintf("%s.g%d.ugsb", name, gen))
	var fp fileFP
	if err = ugs.WriteBinaryGraphFile(side, g); err == nil {
		fp, err = statFP(side)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.compactFails++
		os.Remove(side)
		return
	}
	if s.closed || s.entries[name] != e || e.gen != gen {
		os.Remove(side)
		return
	}
	oldPath, oldOwned := e.path, e.sidecar
	e.path, e.sidecar, e.verified, e.fp = side, true, true, fp
	e.log.Reset()
	s.conversions++
	if oldOwned && oldPath != "" && oldPath != side {
		// Safe while a concurrent reload still has the old file open: the
		// mapping keeps the unlinked inode alive.
		os.Remove(oldPath)
	}
}

// LoadDir loads every *.ugsb, *.ugs and *.txt file in dir (non-recursively),
// naming each graph after its file base without the extension; a .ugsb file
// shadows a text file of the same name. Binary files are opened as mappings
// (fully validated once); text files are parsed, converted to a .ugsb
// sidecar and then served from the mapping. It returns the registered names
// in sorted order. A file that fails to load does NOT abort the boot: its
// name is registered in quarantine (requests get a typed rejection with a
// backoff hint) and re-probed per the quarantine schedule — a flaky or
// corrupt file must not take down the healthy rest of the corpus.
func (s *Store) LoadDir(dir string) ([]string, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Pick one file per name, preferring the binary form.
	rank := map[string]int{".ugsb": 3, ".ugs": 2, ".txt": 1}
	pick := make(map[string]string)
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		ext := filepath.Ext(f.Name())
		if rank[ext] == 0 {
			continue
		}
		name := strings.TrimSuffix(f.Name(), ext)
		if prev, ok := pick[name]; ok && rank[filepath.Ext(prev)] >= rank[ext] {
			continue
		}
		pick[name] = f.Name()
	}
	names := make([]string, 0, len(pick))
	for name := range pick {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, pick[name])
		if err := s.loadFile(name, path); err != nil {
			if !graphNameRE.MatchString(name) {
				return nil, fmt.Errorf("serve: loading %s: %w", pick[name], err)
			}
			s.admitQuarantined(name, path, err)
		}
	}
	return names, nil
}

// loadFile registers one on-disk graph: .ugsb mapped directly, text parsed
// and converted to a mapped sidecar (falling back to an unevictable heap
// graph if conversion fails).
func (s *Store) loadFile(name, path string) error {
	if !graphNameRE.MatchString(name) {
		return fmt.Errorf("serve: invalid graph name %q (want %s)", name, graphNameRE)
	}
	if err := s.ioFaults(); err != nil {
		return err
	}
	if filepath.Ext(path) == ".ugsb" {
		fp, err := statFP(path)
		if err != nil {
			return err
		}
		g, err := ugs.OpenMappedGraph(path) // full validation, once
		if err != nil {
			return err
		}
		return s.admitLoaded(name, &storeEntry{
			path: path, verified: true, fp: fp, info: Info(name, g),
		}, g, fp.size)
	}

	g, err := ugs.ReadGraphFile(path)
	if err != nil {
		return err
	}
	e := &storeEntry{info: Info(name, g)}
	mapped, bytes, cerr := s.convertToSidecar(name, g, e)
	if cerr == nil {
		g = mapped
	} else {
		bytes = heapGraphBytes(g) // unevictable fallback
	}
	return s.admitLoaded(name, e, g, bytes)
}

// convertToSidecar writes g to a store-owned .ugsb and maps it, filling in
// e's backing-file fields.
func (s *Store) convertToSidecar(name string, g *ugs.Graph, e *storeEntry) (*ugs.Graph, int64, error) {
	s.mu.Lock()
	dir, err := s.convertDirLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	side := filepath.Join(dir, name+".g1.ugsb")
	if err := ugs.WriteBinaryGraphFile(side, g); err != nil {
		return nil, 0, err
	}
	fp, err := statFP(side)
	if err != nil {
		os.Remove(side)
		return nil, 0, err
	}
	mapped, err := ugs.OpenMappedGraphTrusted(side)
	if err != nil {
		os.Remove(side)
		return nil, 0, err
	}
	e.path, e.sidecar, e.verified, e.fp = side, true, true, fp
	s.mu.Lock()
	s.conversions++
	s.mu.Unlock()
	return mapped, fp.size, nil
}

// admitLoaded installs a freshly loaded entry under name (gen 1, or bumped
// if the name already exists) and applies the budget.
func (s *Store) admitLoaded(name string, e *storeEntry, g *ugs.Graph, bytes int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		g.Close()
		return errors.New("serve: store closed")
	}
	e.name, e.gen = name, 1
	if prev, ok := s.entries[name]; ok {
		e.gen = prev.gen + 1
		s.removeEntryLocked(prev)
	}
	e.info.Name = name
	e.lastUse = s.tickLocked()
	e.res = &resident{g: g, bytes: bytes}
	s.entries[name] = e
	s.residentBytes += bytes
	s.loads++
	s.evictLocked(e)
	return nil
}

// admitQuarantined registers name with no resident graph and an active
// quarantine: the backing file failed to load at boot, so requests get the
// typed rejection until a probe (per the backoff schedule, or a changed
// file) succeeds.
func (s *Store) admitQuarantined(name, path string, lerr error) {
	fp, _ := statFP(path) // zero on stat error: any later stat differs → probe
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	gen := 1
	if prev, ok := s.entries[name]; ok {
		gen = prev.gen + 1
		s.removeEntryLocked(prev)
	}
	e := &storeEntry{name: name, gen: gen, path: path, lastUse: s.tickLocked()}
	e.info = GraphInfo{Name: name}
	e.quar = &quarantineState{failures: 1, lastErr: lerr, until: s.now().Add(s.quarBackoff(1)), fp: fp}
	s.loadFailures++
	s.entries[name] = e
}

// Acquire returns the graph registered under name, pinned against eviction,
// together with its versioned identifier. The caller must invoke release
// (idempotent) when done with the graph; until then the mapping stays valid
// even if the graph is evicted or replaced. Evicted graphs are reloaded
// from their backing file — concurrent acquirers share one reload.
func (s *Store) Acquire(name string) (g *ugs.Graph, id string, release func(), err error) {
	return s.AcquireCtx(context.Background(), name)
}

// AcquireCtx is Acquire bounded by ctx: a caller whose deadline expires
// while another goroutine's reload is in flight stops waiting (the reload
// itself continues for the survivors). Names under quarantine are rejected
// with a *QuarantineError without touching the backing file, except when a
// stat shows the bytes changed on disk — then the quarantine clears and
// this caller probes immediately.
func (s *Store) AcquireCtx(ctx context.Context, name string) (g *ugs.Graph, id string, release func(), err error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, "", nil, errors.New("serve: store closed")
		}
		if err := ctx.Err(); err != nil {
			s.mu.Unlock()
			return nil, "", nil, err
		}
		e, ok := s.entries[name]
		if !ok {
			s.mu.Unlock()
			return nil, "", nil, fmt.Errorf("%w %q", ErrUnknownGraph, name)
		}
		if r := e.res; r != nil {
			r.refs++
			e.lastUse = s.tickLocked()
			id := fmt.Sprintf("%s@%d", e.name, e.gen)
			s.mu.Unlock()
			var once sync.Once
			return r.g, id, func() { once.Do(func() { s.release(r) }) }, nil
		}
		if ch := e.loading; ch != nil {
			s.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, "", nil, ctx.Err()
			}
			s.mu.Lock()
			continue
		}
		if e.path == "" {
			s.mu.Unlock()
			return nil, "", nil, fmt.Errorf("serve: graph %q evicted with no backing file", name)
		}
		if q := e.quar; q != nil && s.now().Before(q.until) {
			// Under backoff: reject without opening the file — unless the
			// bytes on disk changed, which clears the quarantine early.
			if fp, ferr := statFP(e.path); ferr != nil || fp == q.fp {
				qerr := &QuarantineError{Name: name, Failures: q.failures, Until: q.until, Err: q.lastErr}
				s.quarRejects++
				s.mu.Unlock()
				return nil, "", nil, qerr
			}
			e.quar = nil
		}

		// Become the loader; other acquirers of this name wait on ch.
		ch := make(chan struct{})
		e.loading = ch
		path, verified, oldFP := e.path, e.verified, e.fp
		pending := e.log.Snapshot() // patches applied since path was written
		s.mu.Unlock()

		g, fp, bytes, lerr := s.reopenBacking(path, verified, oldFP)
		if lerr == nil && len(pending) > 0 {
			// The backing file is the pre-patch base: replay the patch log
			// to reconstruct the current generation. The replayed graph is
			// heap-resident, so the base mapping can be released at once. A
			// replay failure means base + log no longer cohere (the file
			// changed under the log) — quarantine, like any corrupt backing.
			patched, rerr := ugs.ReplayEdits(g, pending)
			g.Close()
			if rerr != nil {
				g, lerr = nil, rerr
			} else {
				g, bytes = patched, heapGraphBytes(patched)
			}
		}

		s.mu.Lock()
		e.loading = nil
		close(ch)
		if lerr != nil {
			// Failed probe: extend (or open) the quarantine with doubled
			// backoff, stamped with the failing fingerprint so a repaired
			// file is probed immediately.
			failures := 1
			if e.quar != nil {
				failures = e.quar.failures + 1
			}
			q := &quarantineState{failures: failures, lastErr: lerr, fp: fp,
				until: s.now().Add(s.quarBackoff(failures))}
			if s.entries[name] == e {
				e.quar = q
			}
			s.loadFailures++
			s.quarRejects++
			s.mu.Unlock()
			return nil, "", nil, &QuarantineError{Name: name, Failures: q.failures, Until: q.until,
				Err: fmt.Errorf("serve: reloading graph %q: %w", name, lerr)}
		}
		if s.closed || s.entries[name] != e {
			// The store closed or the name was re-registered while we
			// loaded; discard this mapping and re-resolve from the top.
			g.Close()
			continue
		}
		e.quar = nil // healthy again
		if fp != oldFP {
			// The backing bytes changed on disk: new generation so stale
			// cached results cannot be served, refreshed summary.
			e.gen++
			e.info = Info(e.name, g)
		}
		e.fp, e.verified = fp, filepath.Ext(path) == ".ugsb"
		e.res = &resident{g: g, bytes: bytes}
		s.residentBytes += bytes
		s.loads++
		s.evictLocked(e)
		// Loop: the next iteration pins the resident we just installed.
	}
}

// reopenBacking loads a backing file, skipping the O(|E|) validation scan
// when an earlier open already validated exactly these bytes. Text backings
// (a quarantined-at-boot .ugs/.txt that later heals) are re-parsed onto the
// heap. The returned fp is valid whenever the stat succeeded, even if the
// open then failed — quarantine records it for change detection.
func (s *Store) reopenBacking(path string, verified bool, old fileFP) (*ugs.Graph, fileFP, int64, error) {
	if err := s.ioFaults(); err != nil {
		fp, _ := statFP(path)
		return nil, fp, 0, err
	}
	fp, err := statFP(path)
	if err != nil {
		return nil, fileFP{}, 0, err
	}
	if filepath.Ext(path) != ".ugsb" {
		g, err := ugs.ReadGraphFile(path)
		if err != nil {
			return nil, fp, 0, err
		}
		return g, fp, heapGraphBytes(g), nil
	}
	if verified && fp == old {
		g, err := ugs.OpenMappedGraphTrusted(path)
		return g, fp, fp.size, err
	}
	g, err := ugs.OpenMappedGraph(path)
	return g, fp, fp.size, err
}

// release unpins r; the last release of a dropped resident closes its
// mapping. Dropping a pin can also make the budget enforceable again (an
// overshoot held only by pins), so eviction reruns here.
func (s *Store) release(r *resident) {
	s.mu.Lock()
	r.refs--
	closeNow := r.dropped && r.refs == 0
	if !r.dropped && !s.closed {
		// May drop (and close) r itself now that it is unpinned; closeNow
		// was computed first, so that path cannot double-close.
		s.evictLocked(nil)
	}
	s.mu.Unlock()
	if closeNow {
		r.g.Close()
	}
}

// evictLocked drops least-recently-used unpinned residents until the budget
// holds. keep (the entry being admitted) and pinned or backing-less entries
// are never victims; if only those remain, the budget transiently
// overshoots rather than failing the admission.
func (s *Store) evictLocked(keep *storeEntry) {
	if s.cfg.BudgetBytes <= 0 {
		return
	}
	for s.residentBytes > s.cfg.BudgetBytes {
		var victim *storeEntry
		for _, e := range s.entries {
			if e == keep || e.res == nil || e.res.refs > 0 || e.path == "" {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		s.dropResidentLocked(victim)
		s.evictions++
	}
}

// dropResidentLocked detaches an entry's resident. Unpinned mappings close
// immediately; pinned ones are closed by their final release.
func (s *Store) dropResidentLocked(e *storeEntry) {
	r := e.res
	e.res = nil
	s.residentBytes -= r.bytes
	r.dropped = true
	if r.refs == 0 {
		r.g.Close()
	}
}

// removeEntryLocked drops an entry being replaced, deleting its store-owned
// sidecar (safe while pinned: the mapping keeps the unlinked file alive).
func (s *Store) removeEntryLocked(e *storeEntry) {
	if e.res != nil {
		s.dropResidentLocked(e)
	}
	if e.sidecar && e.path != "" {
		os.Remove(e.path)
	}
}

// Describe returns the summary of the graph registered under name without
// loading it.
func (s *Store) Describe(name string) (GraphInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		return GraphInfo{}, false
	}
	return e.info, true
}

// Len reports the number of registered graphs (resident or evicted).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close evicts every graph and removes the store-owned sidecar directory.
// Pinned mappings are closed by their final release.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, e := range s.entries {
		s.removeEntryLocked(e)
	}
	dir := ""
	if s.ownsConvert {
		dir = s.convertDir
	}
	s.mu.Unlock()
	if dir != "" {
		return os.RemoveAll(dir)
	}
	return nil
}

// GraphInfo is the JSON shape describing a registered graph.
type GraphInfo struct {
	Name     string  `json:"name"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	MeanProb float64 `json:"mean_prob"`
	Entropy  float64 `json:"entropy_bits"`
}

// Info summarizes a graph for listings and responses.
func Info(name string, g *ugs.Graph) GraphInfo {
	return GraphInfo{
		Name:     name,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		MeanProb: g.MeanProb(),
		Entropy:  g.Entropy(),
	}
}

// List returns summaries of every registered graph, sorted by name.
func (s *Store) List() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]GraphInfo, 0, len(s.entries))
	for _, e := range s.entries {
		infos = append(infos, e.info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// StoreStats aggregates the store's budget and traffic counters.
type StoreStats struct {
	Registered    int   `json:"registered"`
	Resident      int   `json:"resident"`
	Pinned        int   `json:"pinned"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
	Loads         int64 `json:"loads"`
	LoadFailures  int64 `json:"load_failures"`
	Evictions     int64 `json:"evictions"`
	Conversions   int64 `json:"conversions"`
	// CompactionFailures counts patch-log compactions abandoned because the
	// sidecar could not be written; the graph keeps its base file + log.
	CompactionFailures int64 `json:"compaction_failures"`
	// Patches counts applied edit batches across all graphs.
	Patches int64 `json:"patches"`
	// Quarantined counts names currently under load-failure backoff;
	// QuarantineRejects counts requests turned away by the negative cache.
	Quarantined       int   `json:"quarantined"`
	QuarantineRejects int64 `json:"quarantine_rejects"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Registered:         len(s.entries),
		ResidentBytes:      s.residentBytes,
		BudgetBytes:        s.cfg.BudgetBytes,
		Loads:              s.loads,
		LoadFailures:       s.loadFailures,
		Evictions:          s.evictions,
		Conversions:        s.conversions,
		CompactionFailures: s.compactFails,
		Patches:            s.patches,
		QuarantineRejects:  s.quarRejects,
	}
	now := s.now()
	for _, e := range s.entries {
		if e.res != nil {
			st.Resident++
			if e.res.refs > 0 {
				st.Pinned++
			}
		}
		if e.quar != nil && now.Before(e.quar.until) {
			st.Quarantined++
		}
	}
	return st
}
