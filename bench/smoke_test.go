package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"ugs"
	"ugs/internal/serve"
)

// TestQuickSmoke runs every workload for one second on small fixtures, plus
// a traced replay of patch_churn, and requires every output check to pass.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	start := time.Now()
	for _, wl := range workloads {
		rc := runConfig{seed: 5, window: time.Second, quick: true, workdir: t.TempDir()}
		rep := runWorkload(t, ctx, wl, rc)
		if rep.attempted == 0 || rep.e2e["throughput_ops"] <= 0 || rep.e2e["setup_s"] <= 0 {
			t.Errorf("%s: %d ops, metrics %v", wl.name, rep.attempted, rep.e2e)
		}
		line := rep.line(false)
		for _, def := range endToEnd {
			if _, ok := line.Metrics[def.Name]; !ok {
				t.Errorf("%s: result line lacks %s", wl.name, def.Name)
			}
		}
	}
	wl, _ := workloadByName("patch_churn")
	spans := filepath.Join(t.TempDir(), "spans.json")
	rep := runWorkload(t, ctx, wl, runConfig{seed: 5, window: time.Second, quick: true, traced: true, workdir: t.TempDir(), spans: spans})
	line := rep.line(true)
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("traced line has %d metrics, want every one of the %d per-layer metrics", len(line.Metrics), len(perLayer))
	}
	for _, name := range []string{"serve.store.patches", "serve.handler.decode_us_p50", "queries.estimate_ms_p50",
		"core.sparsify_ms_p50.gdb", "ugraph.apply_edits_ms_p50", "queries.planner.first_query_ms_p50", "trace.latency_p50_ms", "trace.latency_p99_ms"} {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("traced patch_churn: %s = %v, want > 0", name, line.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var ss []span
	if err := json.Unmarshal(data, &ss); err != nil || len(ss) == 0 {
		t.Errorf("span file: %d spans, err %v", len(ss), err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Logf("smoke took %v (budget 10 s)", d)
	}
}

func runWorkload(t *testing.T, ctx context.Context, wl workload, rc runConfig) *runReport {
	t.Helper()
	var (
		rep *runReport
		err error
	)
	if wl.serve != nil {
		rep, err = runServe(ctx, wl, rc, nil)
	} else {
		rep, err = runLibrary(ctx, rc, nil)
	}
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	if len(rep.problems) > 0 || len(rep.invalid) > 0 {
		t.Errorf("%s: verification %v, validity %v", wl.name, rep.problems, rep.invalid)
	}
	if rep.failed > 0 {
		t.Errorf("%s: %d of %d ops failed", wl.name, rep.failed, rep.attempted)
	}
	return rep
}

// BENCHMARK.json at the repository root must describe exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if wl, ok := workloadByName(w.Name); !ok || wl.why != w.Why {
			t.Errorf("workload %q: why differs from the program's (%q)", w.Name, wl.why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(names), len(workloads))
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(spec.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

func TestValidityGates(t *testing.T) {
	var d statsDelta
	if bad := queryCold.gates(d, false); len(bad) != 0 {
		t.Errorf("query_cold with no hits: %v", bad)
	}
	d.after.WorldCache.Hits = 1
	if bad := queryCold.gates(d, false); len(bad) != 1 {
		t.Errorf("query_cold with a world-cache hit: %v", bad)
	}

	d = statsDelta{}
	d.after.QueryCache = serve.CacheStats{Hits: 79, Misses: 21}
	if bad := queryHot.gates(d, false); len(bad) != 1 {
		t.Errorf("query_hot at 0.79 hit ratio: %v", bad)
	}
	d.after.QueryCache = serve.CacheStats{Hits: 90, Misses: 10}
	if bad := queryHot.gates(d, false); len(bad) != 0 {
		t.Errorf("query_hot at 0.9 hit ratio: %v", bad)
	}

	d = statsDelta{}
	d.before.Store.Conversions, d.after.Store.Conversions = 3, 3
	if bad := patchChurn.gates(d, false); len(bad) != 2 {
		t.Errorf("patch_churn with no evictions or compactions: %v", bad)
	}
	d.after.Store.Evictions, d.after.Store.Conversions = 2, 5
	if bad := patchChurn.gates(d, false); len(bad) != 0 {
		t.Errorf("patch_churn with evictions and compactions: %v", bad)
	}
}

// Generated patch batches must apply, in order, to the graph they were
// generated against.
func TestPatchBatchesApplyInOrder(t *testing.T) {
	g, err := ugs.GenerateSocial(ugs.SocialConfig{N: 200, AvgDegree: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	set := newEdgeSet(g)
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < 50; b++ {
		specs := set.batch(rng, patchEdits)
		edits := make([]ugs.EdgeEdit, len(specs))
		for i, s := range specs {
			op, err := ugs.ParseEditOp(s.Op)
			if err != nil {
				t.Fatal(err)
			}
			edits[i] = ugs.EdgeEdit{Op: op, U: s.U, V: s.V, P: s.P}
		}
		res, err := ugs.ApplyEdits(g, edits)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		g = res.Graph
	}
	got, want := edgePairs(g), append([][2]int(nil), set.pairs...)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("graph has %d edges, mirror %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge %d: graph %v, mirror %v", i, got[i], want[i])
		}
	}
}

func edgePairs(g *ugs.Graph) [][2]int {
	var ps [][2]int
	for _, e := range g.Edges() {
		ps = append(ps, [2]int{min(e.U, e.V), max(e.U, e.V)})
	}
	sortPairs(ps)
	return ps
}

func sortPairs(ps [][2]int) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}
