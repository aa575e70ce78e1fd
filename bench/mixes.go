package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"ugs"
	"ugs/internal/serve"
)

// The three serve mixes. Each holds at least 1000 measured ops in a default
// 25 s window (p99 then has ten samples beyond it), and requests are sized
// so the two-core reference machine stays lightly loaded: queueing at higher
// load turned small speed changes of the shared machine into large,
// seed-dependent latency swings.

// serverConfig is where every serve workload's configuration starts. The
// cache sizes and the per-request sample cap are set explicitly, to the
// server's defaults, because the traced pipeline builds its parts from these
// same fields: the two can only differ if a workload says so.
func serverConfig() serve.Config {
	return serve.Config{SparsifyCacheSize: 128, QueryCacheSize: 1024, WorldCacheBytes: 64 << 20, MaxSamples: 20000}
}

// The engine shape of the query_* workloads and of patch_churn's pinned
// queries. The planner's calibration probe picks 64 lanes / fan-out 8 in
// some processes and 256 / 1 in others for the same graph, which would make
// runs bimodal.
const (
	pinnedLanes  = 64
	pinnedFanOut = 8
)

// pinnedConfig is the query_* server: pinned engine shape, admission control
// sized at four full-budget s10k queries, and an unbounded queue so nothing
// is shed.
func pinnedConfig(fx *fixtureSet, samples int) serve.Config {
	cfg := serverConfig()
	arcs := int64(2 * fx.graphs[fxS10k.name].NumEdges())
	cfg.Lanes, cfg.FanOut = pinnedLanes, pinnedFanOut
	cfg.MaxCost, cfg.MaxQueue = 4*int64(samples)*arcs, -1
	return cfg
}

const (
	coldRate    = 40
	coldSamples = 64
	coldPairs   = 4
)

// queryCold: a fresh seed per query, so no cache or batcher lookup ever hits.
var queryCold = serveWorkload{
	rate:     coldRate,
	fixtures: []fixture{fxS10k},
	samples:  coldSamples,
	config:   func(fx *fixtureSet) serve.Config { return pinnedConfig(fx, coldSamples) },
	ops: func(rng *rand.Rand, n int, fx *fixtureSet) ([]op, error) {
		total := warmupOps + n
		kinds := shuffledKinds(rand.New(rand.NewSource(shapeSeed)), total, []string{"reliability", "distance", "connected"}, []float64{0.4, 0.4, 0.2})
		nv := fx.graphs[fxS10k.name].NumVertices()
		seedBase := rng.Int63n(1 << 40)
		ops := make([]op, total)
		for i, kind := range kinds {
			q := &serve.QueryRequest{Graph: fxS10k.name, Kind: kind, Samples: coldSamples, Seed: seedBase + int64(i)}
			if kind != "connected" {
				q.Pairs = randomPairs(rng, nv, coldPairs)
			}
			ops[i] = queryOp(q, i%verifyEvery == 0)
		}
		return ops, nil
	},
	gates: func(d statsDelta, quick bool) []string {
		var bad []string
		if h := d.after.QueryCache.Hits - d.before.QueryCache.Hits; h > 0 {
			bad = append(bad, fmt.Sprintf("query_cold saw %d query-cache hits", h))
		}
		if h := d.after.WorldCache.Hits - d.before.WorldCache.Hits; h > 0 {
			bad = append(bad, fmt.Sprintf("query_cold saw %d world-cache hits", h))
		}
		return bad
	},
}

func queryOp(q *serve.QueryRequest, verify bool) op {
	body, _ := json.Marshal(q) // a QueryRequest always encodes
	return op{method: http.MethodPost, path: "/v1/query", body: body, kind: q.Kind, graph: q.Graph, verify: verify, query: q}
}

const (
	hotRate          = 300
	hotSamples       = 128
	hotVectorSamples = 32
	hotPairs         = 8
	hotSeeds         = 4
	// hotCacheEntries sizes query_hot's query cache. Set-up fills it with
	// the most popular keys, so the window starts in the steady state of
	// an LRU cache under Zipf traffic: misses arrive at an even rate. With
	// an empty cache they came in a burst at the start of the window (the
	// first request for each popular key), and that burst set the p99.
	// Filling the default 1024 entries would cost every set-up 1024 misses.
	hotCacheEntries = 256
	// hotPairSets sizes the body set: 22 pair sets per (graph, seed) make
	// 916 bodies and 476 cache keys, which a Zipf(1.1) draw hits about 90%
	// of the time in the 256-entry cache.
	hotPairSets = 22
	hotZipfS    = 1.1
	// hotBodySeed fixes the body set and its popularity order; the
	// workload seed only drives the Zipf draws.
	hotBodySeed = 11
)

// hotTargets are the graphs query_hot queries; the empty name stands for the
// sparsified s10k set-up computes. PageRank and clustering run on the first
// two (small) graphs only.
var hotTargets = []string{"twitter80", "flickr60", "sample-social", fxS10k.name, ""}

// queryHot: Zipf-repeated bodies, mostly served from the query cache.
var queryHot = serveWorkload{
	rate:     hotRate,
	fixtures: []fixture{fxS10k},
	examples: true,
	samples:  hotSamples,
	config: func(fx *fixtureSet) serve.Config {
		cfg := pinnedConfig(fx, hotSamples)
		cfg.QueryCacheSize = hotCacheEntries
		return cfg
	},
	prepare: func(ctx context.Context, ex executor, fx *fixtureSet) error {
		o := sparsifyOp(fxS10k.name, false)
		code, body := ex.do(ctx, &o, -1000)
		if code != http.StatusOK {
			return fmt.Errorf("sparsify s10k: status %d: %s", code, body)
		}
		var resp serve.SparsifyResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		fx.spID = resp.ID
		ranked, err := hotRanked(fx)
		if err != nil {
			return err
		}
		// Least popular first, so the most popular keys are the most
		// recently used when the window starts.
		fill := hotFill(ranked)
		for i := len(fill) - 1; i >= 0; i-- {
			if code, body := ex.do(ctx, &fill[i], -2000-i); code != http.StatusOK {
				return fmt.Errorf("filling the query cache: status %d: %s", code, body)
			}
		}
		return nil
	},
	ops: func(rng *rand.Rand, n int, fx *fixtureSet) ([]op, error) {
		ranked, err := hotRanked(fx)
		if err != nil {
			return nil, err
		}
		z := rand.NewZipf(rng, hotZipfS, 1, uint64(len(ranked)-1))
		ops := make([]op, warmupOps+n)
		for i := range ops {
			ops[i] = ranked[z.Uint64()]
			ops[i].verify = i%verifyEvery == 0
		}
		return ops, nil
	},
	gates: func(d statsDelta, quick bool) []string {
		if r := d.queryHitRatio(); r < 0.8 && !quick {
			return []string{fmt.Sprintf("query_hot query-cache hit ratio %.3f < 0.8", r)}
		}
		return nil
	},
}

// hotRanked builds query_hot's fixed body set in popularity order: the
// Zipf draw picks index 0 most often.
func hotRanked(fx *fixtureSet) ([]op, error) {
	rng := rand.New(rand.NewSource(hotBodySeed))
	var bodies []op
	for ti, target := range hotTargets {
		vertsOf := target
		if target == "" {
			target, vertsOf = fx.spID, fxS10k.name
		}
		g, ok := fx.graphs[vertsOf]
		if !ok {
			return nil, fmt.Errorf("query_hot target %q not loaded", vertsOf)
		}
		nv := g.NumVertices()
		for seed := int64(0); seed < hotSeeds; seed++ {
			for ps := 0; ps < hotPairSets; ps++ {
				pairs := randomPairs(rng, nv, hotPairs)
				for _, kind := range []string{"reliability", "distance"} {
					bodies = append(bodies, queryOp(&serve.QueryRequest{Graph: target, Kind: kind, Pairs: pairs, Samples: hotSamples, Seed: seed}, false))
				}
			}
			bodies = append(bodies, queryOp(&serve.QueryRequest{Graph: target, Kind: "connected", Samples: hotSamples, Seed: seed}, false))
			if ti < 2 {
				for _, kind := range []string{"pagerank", "clustering"} {
					bodies = append(bodies, queryOp(&serve.QueryRequest{Graph: target, Kind: kind, Samples: hotVectorSamples, Seed: seed}, false))
				}
			}
		}
	}
	ranked := make([]op, len(bodies))
	for i, b := range rng.Perm(len(bodies)) {
		ranked[i] = bodies[b]
	}
	return ranked, nil
}

// hotFill returns one body for each of the hotCacheEntries most popular
// cache keys, most popular first. Reliability and distance on the same pairs
// share one key: the server answers both from one pass.
func hotFill(ranked []op) []op {
	var fill []op
	seen := map[string]bool{}
	for _, o := range ranked {
		q := *o.query
		if q.Kind == "distance" {
			q.Kind = "reliability"
		}
		key, _ := json.Marshal(q)
		if !seen[string(key)] {
			seen[string(key)] = true
			if fill = append(fill, o); len(fill) == hotCacheEntries {
				break
			}
		}
	}
	return fill
}

const (
	churnRate    = 40
	churnSamples = 128
	churnPairs   = 4
	churnSeeds   = 8
	patchEdits   = 8
	// churnSession is how many consecutive ops go to one graph before the
	// mix moves on to the next, in a fixed cycle: tenants work on a graph
	// for a while. With a store budget of 2.5 graphs the next graph is
	// always the evicted one, so every move reloads it.
	churnSession = 200
)

var churnGraphs = []fixture{fxS10k, fxS10kB, fxS10kC}

// patchChurn: versioned edge patches beside reliability queries and sparsify
// requests, under a store budget below the three graphs' resident bytes.
//
// Every patch hands the planner a new graph value, and a probe holds the
// planner's lock for 70–300 ms, stalling every auto query meanwhile. With
// patches this frequent, a query on auto would probe nearly every time, so
// only the first reliability query of each session is left to the planner
// (it probes the freshly reloaded graph) and the rest pin 64 lanes and
// fan-out 8, as a client that sets them would. That keeps the number of
// probes per window fixed, and well below the ten slowest ops that p99
// looks past.
var patchChurn = serveWorkload{
	rate:     churnRate,
	fixtures: churnGraphs,
	samples:  churnSamples,
	config: func(fx *fixtureSet) serve.Config {
		g := fx.graphs[fxS10k.name]
		// The bytes serve's store charges for one resident graph: edge
		// records, CSR offsets and arcs.
		one := int64(56*g.NumEdges() + 4*(g.NumVertices()+1))
		cfg := serverConfig()
		cfg.StoreBudgetBytes = 5 * one / 2
		return cfg
	},
	ops: func(rng *rand.Rand, n int, fx *fixtureSet) ([]op, error) {
		total := warmupOps + n
		// The Monte-Carlo seeds, like the order of kinds, are part of the
		// stream's shape: which reliability queries find their worlds
		// already cached (same seed, same graph generation) is then the
		// same in every run. Drawn per workload seed, that share moved the
		// p50, which falls among the reliability queries.
		shape := rand.New(rand.NewSource(shapeSeed))
		kinds := shuffledKinds(shape, total, []string{"patch", "reliability", "sparsify"}, []float64{0.3, 0.5, 0.2})
		edges := map[string]*edgeSet{}
		version := map[string]int{}
		for _, f := range churnGraphs {
			edges[f.name] = newEdgeSet(fx.graphs[f.name])
			version[f.name] = 1
		}
		ops := make([]op, total)
		// Sessions count measured ops; the warm-up belongs to the first and
		// pins every query, so each probe falls inside the window.
		autoSession := -1 // the last session whose auto query was sent
		for i, kind := range kinds {
			session := max(i-warmupOps, 0) / churnSession
			graph := churnGraphs[session%len(churnGraphs)].name
			switch kind {
			case "patch":
				req := serve.PatchRequest{Edits: edges[graph].batch(rng, patchEdits), ExpectVersion: version[graph]}
				version[graph]++
				body, _ := json.Marshal(req)
				ops[i] = op{method: http.MethodPatch, path: "/v1/graphs/" + graph + "/edges", body: body,
					kind: "patch", graph: graph, verify: true, wantVersion: version[graph]}
			case "sparsify":
				ops[i] = sparsifyOp(graph, true)
			default:
				nv := fx.graphs[graph].NumVertices()
				q := &serve.QueryRequest{Graph: graph, Kind: kind, Pairs: randomPairs(rng, nv, churnPairs),
					Samples: churnSamples, Seed: shape.Int63n(churnSeeds)}
				if i >= warmupOps && session != autoSession {
					autoSession = session
				} else {
					q.Lanes, q.FanOut = ugs.FormatLanes(pinnedLanes), ugs.FormatFanOut(pinnedFanOut)
				}
				ops[i] = queryOp(q, false)
			}
		}
		return ops, nil
	},
	gates: func(d statsDelta, quick bool) []string {
		if quick {
			return nil
		}
		var bad []string
		if d.after.Store.Evictions == d.before.Store.Evictions {
			bad = append(bad, "patch_churn evicted nothing")
		}
		if d.compactions() == 0 {
			bad = append(bad, "patch_churn compacted nothing")
		}
		return bad
	},
}

func sparsifyOp(graph string, verify bool) op {
	body, _ := json.Marshal(serve.SparsifyRequest{Graph: graph, Alpha: alpha, Spec: ugs.Spec{Method: "gdb", Seed: 1}})
	return op{method: http.MethodPost, path: "/v1/sparsify", body: body, kind: "sparsify", graph: graph, verify: verify}
}

// edgeSet mirrors a graph's edge set while patches are generated, so every
// batch is valid against the version it is applied to.
type edgeSet struct {
	n     int
	pairs [][2]int
	index map[[2]int]int
}

func newEdgeSet(g *ugs.Graph) *edgeSet {
	s := &edgeSet{n: g.NumVertices(), index: make(map[[2]int]int, g.NumEdges())}
	for _, e := range g.Edges() {
		s.add([2]int{e.U, e.V})
	}
	return s
}

func (s *edgeSet) add(p [2]int) {
	s.index[p] = len(s.pairs)
	s.pairs = append(s.pairs, p)
}

func (s *edgeSet) remove(p [2]int) {
	i := s.index[p]
	last := s.pairs[len(s.pairs)-1]
	s.pairs[i] = last
	s.index[last] = i
	s.pairs = s.pairs[:len(s.pairs)-1]
	delete(s.index, p)
}

// batch draws a size-edit batch — one delete, one insert, the rest
// reweights, as cmd/ugs-bench's repair batches are — and applies it to the
// mirror.
func (s *edgeSet) batch(rng *rand.Rand, size int) []serve.EditSpec {
	picked := make(map[int]bool, size)
	ids := make([]int, 0, size-1)
	for len(ids) < size-1 {
		if id := rng.Intn(len(s.pairs)); !picked[id] {
			picked[id] = true
			ids = append(ids, id)
		}
	}
	del := s.pairs[ids[0]]
	edits := []serve.EditSpec{{Op: "delete", U: del[0], V: del[1]}}
	for _, id := range ids[1:] {
		p := s.pairs[id]
		edits = append(edits, serve.EditSpec{Op: "reweight", U: p[0], V: p[1], P: 0.05 + 0.9*rng.Float64()})
	}
	var ins [2]int
	for {
		u, v := rng.Intn(s.n), rng.Intn(s.n)
		if u == v {
			continue
		}
		ins = [2]int{min(u, v), max(u, v)}
		if _, exists := s.index[ins]; !exists && ins != del {
			break
		}
	}
	edits = append(edits, serve.EditSpec{Op: "insert", U: ins[0], V: ins[1], P: 0.05 + 0.9*rng.Float64()})
	s.remove(del)
	s.add(ins)
	return edits
}
