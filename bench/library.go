package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ugs"
	"ugs/internal/core"
)

// sparsify_repair: one closed-loop client calling the ugs facade. A round
// sparsifies the mapped s10k with each of four methods (seed = round), then
// applies repairsPerRound edit batches to a Dynamic over s100k, cycling the
// batch size through repairSizes. With 48 repairs per round the sparsifiers
// take about a third of the time, and the traced p99 (the 6th to 9th slowest
// of the 550–900 ops of a 25 s window) falls among the window's 11–17 EMD
// runs, the slowest calls, rather than on the edge between two kinds of call.
// A structural repair on 100k edges costs 15–25 ms, so the window holds
// fewer than the 1000 ops an open loop does; how many depends on the
// machine's speed, which is why no validity rule counts them.
const repairsPerRound = 48

var (
	repairSizes     = []int{1, 16, 64}
	sparsifyMethods = []string{"gdb", "emd", "ni", "ss"}
)

type librarySetup struct {
	dir     string
	mapped  *ugs.Graph // s10k, memory-mapped
	dyn     *ugs.Dynamic
	rng     *rand.Rand // draws the repair batches
	tr      *tracer    // nil when untraced
	elapsed time.Duration
}

func (l *librarySetup) close() {
	l.mapped.Close()
	os.RemoveAll(l.dir)
}

func setupLibrary(ctx context.Context, rc runConfig) (*librarySetup, error) {
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.workdir, "sparsify_repair-*")
	if err != nil {
		return nil, err
	}
	l := &librarySetup{dir: dir}
	start := time.Now()
	if _, err := writeFixtures(dir, rc.quick, fxS10k); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if l.mapped, err = ugs.OpenMappedGraph(filepath.Join(dir, fxS10k.name+".ugsb")); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	big, err := fxS100k.generate(rc.quick)
	if err == nil {
		l.dyn, err = ugs.NewDynamic(ctx, big, alpha, ugs.DynOptions{Method: ugs.MethodGDB, Seed: 1})
	}
	if err != nil {
		l.close()
		return nil, err
	}
	l.rng = rand.New(rand.NewSource(rc.seed))
	if rc.traced {
		l.tr = newTracer()
	}
	for i := 0; i < warmupOps; i++ {
		if err := l.op(ctx, i, -1-i); err != nil {
			l.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	l.elapsed = time.Since(start)
	return l, nil
}

// opsPerRound is the length of the repeating op list.
var opsPerRound = len(sparsifyMethods) + repairsPerRound

// op runs op i of the round-robin op list; req tags its spans. The
// sparsifier seed is the round number, so only the repair batches depend on
// the workload seed.
func (l *librarySetup) op(ctx context.Context, i, req int) error {
	round, j := i/opsPerRound, i%opsPerRound
	if j < len(sparsifyMethods) {
		return l.sparsify(ctx, sparsifyMethods[j], int64(round), req)
	}
	return l.repair(ctx, repairSizes[(j-len(sparsifyMethods))%len(repairSizes)], req)
}

func (l *librarySetup) sparsify(ctx context.Context, method string, seed int64, req int) error {
	sp, err := ugs.Lookup(method, ugs.WithSeed(seed))
	if err != nil {
		return err
	}
	var res *ugs.Result
	err = l.timed(req, "core.sparsify."+method, func() (float64, float64, error) {
		var err error
		res, err = sp.Sparsify(ctx, l.mapped, alpha)
		if err != nil {
			return 0, 0, err
		}
		return float64(res.Stats.EdgeVisits), 0, nil
	})
	if err != nil {
		return err
	}
	if limit := int(math.Ceil(alpha * float64(l.mapped.NumEdges()))); res.Graph.NumEdges() > limit {
		return fmt.Errorf("%s kept %d edges > ⌈α|E|⌉ = %d", method, res.Graph.NumEdges(), limit)
	}
	return nil
}

func (l *librarySetup) repair(ctx context.Context, size, req int) error {
	batch := randomEditBatch(l.rng, l.dyn.Graph(), size)
	if l.tr != nil {
		// Repair applies the batch itself; applying it once more here times
		// the ugraph layer on its own.
		if err := l.timed(req, "ugraph.apply_edits", func() (float64, float64, error) {
			_, err := ugs.ApplyEdits(l.dyn.Graph(), batch)
			return 0, 0, err
		}); err != nil {
			return err
		}
	}
	err := l.timed(req, "core.repair."+strconv.Itoa(size), func() (float64, float64, error) {
		st, err := l.dyn.Repair(ctx, batch)
		if err != nil {
			return 0, 0, err
		}
		return float64(st.DirtyVertices), float64(st.EdgeVisits), nil
	})
	if err != nil {
		return err
	}
	g := l.dyn.Graph()
	target := min(max(core.TargetEdges(g, alpha), 1), g.NumEdges())
	if got := len(l.dyn.Backbone()); got != target {
		return fmt.Errorf("repair left a backbone of %d edges, target %d", got, target)
	}
	return nil
}

// timed runs f, inside a span when tracing; f returns the span's Work and
// Extra annotations.
func (l *librarySetup) timed(req int, name string, f func() (float64, float64, error)) error {
	if l.tr == nil {
		_, _, err := f()
		return err
	}
	id := l.tr.begin(req, 0, name)
	work, extra, err := f()
	l.tr.end(id, func(s *span) { s.Work, s.Extra, s.Failed = work, extra, err != nil })
	return err
}

// randomEditBatch draws a size-edit batch over g's edges: reweights, plus
// one delete and one insert when size ≥ 2 (the batches cmd/ugs-bench's
// RepairVsScratch rows use).
func randomEditBatch(rng *rand.Rand, g *ugs.Graph, size int) []ugs.EdgeEdit {
	edges := g.Edges()
	picked := make(map[int]bool, size)
	edits := make([]ugs.EdgeEdit, 0, size)
	for len(edits) < size {
		id := rng.Intn(len(edges))
		if picked[id] {
			continue
		}
		picked[id] = true
		e := edges[id]
		switch {
		case size >= 2 && len(edits) == 0:
			edits = append(edits, ugs.EdgeEdit{Op: ugs.EditDelete, U: e.U, V: e.V})
		case size >= 2 && len(edits) == 1:
			for {
				u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
				if u == v {
					continue
				}
				if _, exists := g.EdgeID(u, v); !exists {
					edits = append(edits, ugs.EdgeEdit{Op: ugs.EditInsert, U: u, V: v, P: 0.05 + 0.9*rng.Float64()})
					break
				}
			}
		default:
			edits = append(edits, ugs.EdgeEdit{Op: ugs.EditReweight, U: e.U, V: e.V, P: 0.05 + 0.9*rng.Float64()})
		}
	}
	return edits
}

// closedLoop runs ops back to back until the window has elapsed; each op's
// latency is its own duration.
func closedLoop(window time.Duration, do func(i int) bool) loopResult {
	var r loopResult
	r.start = time.Now()
	for i := 0; time.Since(r.start) < window; i++ {
		t := time.Now()
		ok := do(i)
		r.latency = append(r.latency, time.Since(t))
		r.ok = append(r.ok, ok)
	}
	r.end = time.Now()
	return r
}

func runLibrary(ctx context.Context, rc runConfig, setups []float64) (*runReport, error) {
	l, err := setupLibrary(ctx, rc)
	if err != nil {
		return nil, err
	}
	defer l.close()
	setups = append(setups, l.elapsed.Seconds())

	var problems []string
	out := windowOutcome{setup: setups, before: readProbe()}
	out.loop = closedLoop(rc.window, func(i int) bool {
		if err := l.op(ctx, warmupOps+i, i); err != nil {
			problems = append(problems, fmt.Sprintf("op %d: %v", i, err))
			return false
		}
		return true
	})
	out.after = readProbe()
	out.goroutines = runtime.NumGoroutine()
	// Finish the round, unmeasured, so the live heap is always read in the
	// same state: how much a graph caches depends on the last call made.
	for i := len(out.loop.ok); (warmupOps+i)%opsPerRound != 0; i++ {
		if err := l.op(ctx, warmupOps+i, -1); err != nil {
			problems = append(problems, fmt.Sprintf("op %d: %v", i, err))
		}
	}
	out.heapMB = heapLiveMB()
	runtime.KeepAlive(l)

	rep := &runReport{e2e: out.endToEndValues(), attempted: out.attempted(), failed: out.failed(), problems: problems}
	if rc.traced {
		rep.layer = l.layerMetrics()
		for k, v := range out.runtimeValues() {
			rep.layer[k] = v
		}
		if rc.spans != "" {
			if err := writeSpans(rc.spans, l.tr.snapshot()); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// layerMetrics computes the per-layer metrics of a traced library window.
func (l *librarySetup) layerMetrics() map[string]float64 {
	ix := indexSpans(l.tr.snapshot())
	m := zeroLayerMetrics()
	for _, method := range sparsifyMethods {
		runs := ix.named("core.sparsify." + method)
		m["core.sparsify_ms_p50."+method] = pctNS(durs(runs), 50, perMS)
		if method == "gdb" || method == "emd" {
			m["core.edge_visits."+method] = medianWork(runs)
		}
	}
	applied := map[int]int64{} // request → ApplyEdits time on its batch
	for _, s := range ix.named("ugraph.apply_edits") {
		applied[s.Req] = s.dur()
	}
	m["ugraph.apply_edits_ms_p50"] = pctNS(durs(ix.named("ugraph.apply_edits")), 50, perMS)
	var repairs []*span
	var self []int64
	for _, size := range repairSizes {
		runs := ix.named("core.repair." + strconv.Itoa(size))
		m["core.repair_ms_p50."+strconv.Itoa(size)] = pctNS(durs(runs), 50, perMS)
		for _, s := range runs {
			self = append(self, s.dur()-applied[s.Req])
		}
		repairs = append(repairs, runs...)
	}
	m["core.repair_self_ms_p50"] = pctNS(self, 50, perMS)
	m["core.repair_dirty_vertices_p50"] = medianWork(repairs)
	extra := make([]float64, len(repairs))
	for i, s := range repairs {
		extra[i] = s.Extra
	}
	if len(extra) > 0 {
		m["core.repair_edge_visits_p50"] = median(extra)
	}
	open, trusted := ugsbOpenMS(filepath.Join(l.dir, fxS10k.name+".ugsb"))
	m["ugsb.open_ms"], m["ugsb.open_trusted_ms"] = open, trusted
	return m
}
