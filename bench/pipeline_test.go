package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"ugs/internal/serve"
)

// The traced pipeline must hit and miss its caches exactly where the server
// does, given the same configuration: same cache identities (reliability and
// distance share an entry, the engine shape is not part of it), same cache
// sizes, same sparsified-graph ids.
func TestPipelineCachesLikeServer(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	graphDir := filepath.Join(dir, "graphs")
	small := fixture{"g", 200, 3}
	graphs, err := writeFixtures(mkdir(t, graphDir), false, small)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig()
	cfg.QueryCacheSize, cfg.SparsifyCacheSize = 4, 2
	cfg.GraphDir = graphDir

	cfg.ConvertDir = mkdir(t, filepath.Join(dir, "server-convert"))
	base, cancel := context.WithCancel(ctx)
	srv, err := serve.New(base, cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	server := &handlerExec{srv: srv, cancel: cancel}
	defer server.close()
	cfg.ConvertDir = mkdir(t, filepath.Join(dir, "pipeline-convert"))
	pipe, err := newPipeline(cfg, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.close()

	nv := graphs[small.name].NumVertices()
	p1, p2 := [][2]int{{0, 1}, {2, nv - 1}}, [][2]int{{5, 7}}
	q := func(kind string, pairs [][2]int, seed int64, lanes, fan string) op {
		samples := 64
		if kind == "pagerank" || kind == "clustering" {
			samples = 8
		}
		return queryOp(&serve.QueryRequest{Graph: small.name, Kind: kind, Pairs: pairs, Samples: samples, Seed: seed, Lanes: lanes, FanOut: fan}, false)
	}
	steps := []struct {
		op     op
		cached bool
	}{
		{q("reliability", p1, 1, "", ""), false},
		{q("distance", p1, 1, "", ""), true},       // one entry for both kinds
		{q("reliability", p1, 1, "64", "1"), true}, // engine shape is not part of the key
		{q("reliability", p1, 2, "", ""), false},
		{q("reliability", p2, 1, "", ""), false},
		{q("connected", nil, 1, "", ""), false},
		{q("pagerank", nil, 1, "", ""), false}, // fifth key: evicts the oldest
		{q("reliability", p1, 1, "", ""), false},
		{q("connected", nil, 1, "", ""), true},
		{q("clustering", nil, 1, "", ""), false},
		{sparsifyOp(small.name, false), false},
		{sparsifyOp(small.name, false), true},
	}
	for i, s := range steps {
		sc, sb := server.do(ctx, &s.op, i)
		pc, pb := pipe.do(ctx, &s.op, i)
		if sc != http.StatusOK || pc != http.StatusOK {
			t.Fatalf("step %d (%s): server %d %s, pipeline %d %s", i, s.op.kind, sc, sb, pc, pb)
		}
		var sr, pr struct {
			Cached bool   `json:"cached"`
			ID     string `json:"id"`
		}
		if err := json.Unmarshal(sb, &sr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(pb, &pr); err != nil {
			t.Fatal(err)
		}
		if sr.Cached != s.cached || pr.Cached != s.cached {
			t.Errorf("step %d (%s): cached server %v, pipeline %v, want %v", i, s.op.kind, sr.Cached, pr.Cached, s.cached)
		}
		if sr.ID != pr.ID {
			t.Errorf("step %d (%s): sparsified id server %q, pipeline %q", i, s.op.kind, sr.ID, pr.ID)
		}
	}
}

// A configuration that leaves a size to the server's defaults is refused.
func TestPipelineNeedsExplicitSizes(t *testing.T) {
	for _, clear := range []func(*serve.Config){
		func(c *serve.Config) { c.QueryCacheSize = 0 },
		func(c *serve.Config) { c.SparsifyCacheSize = 0 },
		func(c *serve.Config) { c.WorldCacheBytes = 0 },
		func(c *serve.Config) { c.MaxSamples = 0 },
		func(c *serve.Config) { c.MaxCost = 1 << 20 }, // MaxQueue left 0
	} {
		cfg := serverConfig()
		clear(&cfg)
		if p, err := newPipeline(cfg, newTracer()); err == nil {
			p.close()
			t.Errorf("newPipeline accepted %+v", cfg)
		}
	}
}

func mkdir(t *testing.T, dir string) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}
