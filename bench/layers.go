package main

import (
	"context"
	"path/filepath"
	"sort"
	"time"

	"ugs"
	"ugs/internal/queries"
)

// unattributed marks a world-cache span not yet assigned to a request.
const unattributed = -1 << 30

// attributeFills assigns every world-cache span to the Monte-Carlo call that
// caused it: the earliest-started batcher or estimate span on the same
// (graph, seed) whose interval contains it. A merged batcher flight's
// lookups therefore land on its first rider; later riders of that flight
// show only waiting.
func attributeFills(spans []span) {
	type gs struct {
		graph string
		seed  int64
	}
	calls := map[gs][]int{}
	for i, s := range spans {
		if (s.Name == "serve.batcher" || s.Name == "queries.estimate") && s.Graph != "" {
			k := gs{s.Graph, s.Seed}
			calls[k] = append(calls[k], i)
		}
	}
	for _, idx := range calls {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	owner := map[int]int{} // world-cache span id → request
	for i := range spans {
		s := &spans[i]
		if s.Name != "serve.world_cache" || s.Req != unattributed {
			continue
		}
		for _, ci := range calls[gs{s.Graph, s.Seed}] {
			c := spans[ci]
			if c.Start <= s.Start && s.End <= c.End {
				s.Parent, s.Req = c.ID, c.Req
				owner[s.ID] = c.Req
				break
			}
		}
	}
	for i := range spans {
		if s := &spans[i]; s.Name == "ugraph.fill" {
			if req, ok := owner[s.Parent]; ok {
				s.Req = req
			}
		}
	}
}

// estimateTimes splits the window's Monte-Carlo calls into batcher wait,
// estimate and traversal time. A batcher span's estimate starts at its first
// world-cache lookup; before that the request waited for its flight. The
// traversal is the estimate minus the time its lookups and fills cover.
type estimateTimes struct {
	wait, estimate, traverse []int64
	fillNS, estimateNS       int64
	work, traverseNS         float64
}

func estimates(ix *spanIndex) estimateTimes {
	var et estimateTimes
	add := func(s *span, from int64) {
		est := s.End - from
		trav := est - ix.covered(s.ID, from, s.End)
		et.estimate = append(et.estimate, est)
		et.traverse = append(et.traverse, trav)
		et.estimateNS += est
		et.traverseNS += float64(trav)
		et.work += s.Work
		var fills []int
		for _, ci := range ix.children[s.ID] {
			fills = append(fills, ix.children[ix.spans[ci].ID]...)
		}
		et.fillNS += union(ix.spans, fills, from, s.End)
	}
	for _, s := range ix.named("serve.batcher") {
		if len(ix.children[s.ID]) == 0 {
			et.wait = append(et.wait, s.dur()) // rode another request's flight
			continue
		}
		first := ix.firstChildStart(s)
		et.wait = append(et.wait, first-s.Start)
		add(s, first)
	}
	for _, s := range ix.named("queries.estimate") {
		add(s, s.Start)
	}
	return et
}

// layerMetrics computes the per-layer metrics of a traced serve window from
// its spans and the counter deltas. Layers the workload does not exercise
// report 0.
func (p *pipeline) layerMetrics(d statsDelta, w *serveWorkload) map[string]float64 {
	spans := p.tr.snapshot()
	attributeFills(spans)
	p.spans = spans
	ix := indexSpans(spans)
	m := zeroLayerMetrics()

	var self []int64
	for _, s := range ix.named("serve.handler") {
		self = append(self, ix.self(s))
	}
	m["serve.handler.self_ms_p50"] = pctNS(self, 50, perMS)
	m["serve.handler.decode_us_p50"] = pctNS(durs(ix.named("serve.handler.decode")), 50, perUS)
	m["serve.handler.encode_us_p50"] = pctNS(durs(ix.named("serve.handler.encode")), 50, perUS)
	m["serve.store.acquire_ms_p99"] = pctNS(durs(ix.named("serve.store.acquire")), 99, perMS)
	m["serve.store.patch_ms_p50"] = pctNS(durs(ix.named("serve.store.patch")), 50, perMS)
	m["serve.limiter.wait_ms_p99"] = pctNS(durs(ix.named("serve.limiter.wait")), 99, perMS)
	m["serve.query_cache.hit_us_p50"] = pctNS(durs(hits(ix.named("serve.query_cache"))), 50, perUS)
	m["serve.world_cache.hit_us_p50"] = pctNS(durs(hits(ix.named("serve.world_cache"))), 50, perUS)
	m["ugraph.fill_ms_p50"] = pctNS(durs(ix.named("ugraph.fill")), 50, perMS)
	m["ugraph.apply_edits_ms_p50"] = pctNS(durs(ix.named("ugraph.apply_edits")), 50, perMS)

	et := estimates(ix)
	m["serve.batcher.wait_ms_p50"] = pctNS(et.wait, 50, perMS)
	m["queries.estimate_ms_p50"] = pctNS(et.estimate, 50, perMS)
	m["queries.traverse_ms_p50"] = pctNS(et.traverse, 50, perMS)
	if et.estimateNS > 0 {
		m["ugraph.fill_share"] = float64(et.fillNS) / float64(et.estimateNS)
	}
	if et.traverseNS > 0 {
		m["queries.arc_worlds_per_s"] = et.work / (et.traverseNS / 1e9)
	}
	m["queries.planner.first_query_ms_p50"] = pctNS(durs(ix.named("queries.planner.first_query")), 50, perMS)
	for _, method := range []string{"gdb", "emd", "ni", "ss"} {
		runs := ix.named("core.sparsify." + method)
		m["core.sparsify_ms_p50."+method] = pctNS(durs(runs), 50, perMS)
		if method == "gdb" || method == "emd" {
			m["core.edge_visits."+method] = medianWork(runs)
		}
	}

	ctx := context.Background()
	opts := ugs.MCOptions{Samples: w.samples, Lanes: p.cfg.Lanes, FanOut: p.cfg.FanOut}
	for _, f := range churnGraphs {
		g, _, release, err := p.store.AcquireCtx(ctx, f.name)
		if err != nil {
			continue // not served by this workload
		}
		m["queries.planner.lanes."+f.name] = float64(queries.PlanLanes(g, opts, queries.KindPair))
		m["queries.planner.fan_out."+f.name] = float64(queries.PlanFanOut(g, opts, churnPairs, queries.KindPair))
		release()
	}

	b, a := d.before, d.after
	m["serve.store.loads"] = float64(a.Store.Loads - b.Store.Loads)
	m["serve.store.evictions"] = float64(a.Store.Evictions - b.Store.Evictions)
	m["serve.store.compactions"] = float64(d.compactions())
	m["serve.store.patches"] = float64(a.Store.Patches - b.Store.Patches)
	m["serve.store.resident_mb"] = float64(a.Store.ResidentBytes) / 1e6
	m["serve.limiter.queued_total"] = float64(a.Limiter.EverQueue - b.Limiter.EverQueue)
	m["serve.limiter.shed"] = float64(a.Limiter.Shed - b.Limiter.Shed)
	m["serve.query_cache.hit_ratio"] = d.queryHitRatio()
	m["serve.query_cache.shared"] = float64(a.QueryCache.Shared - b.QueryCache.Shared)
	m["serve.query_cache.evictions"] = float64(a.QueryCache.Evictions - b.QueryCache.Evictions)
	sh := a.SparsifyCache.Hits - b.SparsifyCache.Hits
	m["serve.sparsify_cache.hit_ratio"] = ratio(sh, sh+(a.SparsifyCache.Misses-b.SparsifyCache.Misses)+(a.SparsifyCache.Shared-b.SparsifyCache.Shared))
	if fl := a.Batcher.Flights - b.Batcher.Flights; fl > 0 {
		m["serve.batcher.riders_per_flight"] = float64(a.Batcher.Requests-b.Batcher.Requests) / float64(fl)
	}
	wh := a.WorldCache.Hits - b.WorldCache.Hits
	m["serve.world_cache.hit_ratio"] = ratio(wh, wh+a.WorldCache.Misses-b.WorldCache.Misses)
	m["serve.world_cache.evictions"] = float64(a.WorldCache.Evictions - b.WorldCache.Evictions)

	open, trusted := ugsbOpenMS(filepath.Join(p.cfg.GraphDir, fxS10k.name+".ugsb"))
	m["ugsb.open_ms"], m["ugsb.open_trusted_ms"] = open, trusted
	return m
}

func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, def := range perLayer {
		m[def.Name] = 0
	}
	return m
}

func hits(ss []*span) []*span {
	var out []*span
	for _, s := range ss {
		if s.Hit {
			out = append(out, s)
		}
	}
	return out
}

func medianWork(ss []*span) float64 {
	if len(ss) == 0 {
		return 0
	}
	w := make([]float64, len(ss))
	for i, s := range ss {
		w[i] = s.Work
	}
	return median(w)
}

// ugsbOpenMS times validated and header-only opens of a .ugsb file (median
// of several), in milliseconds.
func ugsbOpenMS(path string) (open, trusted float64) {
	const reps = 7
	timeOpen := func(f func(string) (*ugs.Graph, error)) float64 {
		ms := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			start := time.Now()
			g, err := f(path)
			if err != nil {
				return 0
			}
			ms = append(ms, float64(time.Since(start))/1e6)
			g.Close()
		}
		return median(ms)
	}
	return timeOpen(ugs.OpenMappedGraph), timeOpen(ugs.OpenMappedGraphTrusted)
}
