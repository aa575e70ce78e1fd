package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ugs"
	"ugs/internal/serve"
)

// Run-shape constants shared by every workload.
const (
	defaultSeconds = 25
	warmupOps      = 20
	// setupRepeats is how many times a run sets up (the first ones in child
	// processes, so each starts cold); setup_s is their median.
	setupRepeats = 5
	// verifyEvery selects the fixed-budget query answers re-derived by a
	// direct library call after the window.
	verifyEvery = 16
	maxLagP99   = 50 * time.Millisecond
	alpha       = 0.3
	// shapeSeed fixes the shape of every open-loop stream — the arrival
	// times and the order of request kinds — for all workload seeds. Seeds
	// vary what is asked (pairs, Monte-Carlo seeds, patch edits, Zipf
	// draws), not how arrivals cluster: near-coincident arrivals set the
	// p99, and their count alone differs widely between Poisson draws.
	shapeSeed = 1
)

// workload is one traffic mix the benchmark runs. Serve workloads drive an
// in-process serve.Server through its HTTP handler; the library workload
// calls the ugs facade directly.
type workload struct {
	name string
	why  string
	// serve is set for workloads that go through ugs-serve.
	serve *serveWorkload
}

var workloads = []workload{
	{"query_cold", "fresh seed per query: every query-cache, world-cache and batcher lookup misses, so sampling and traversal do the work", &queryCold},
	{"query_hot", "Zipf-repeated query bodies over five graphs: the handler- and cache-bound path, 9 in 10 answers from a query cache in steady state", &queryHot},
	{"patch_churn", "30% edge patches beside reliability and sparsify on three graphs under a store budget: patch, evict, log replay, compaction, planner probes", &patchChurn},
	{"sparsify_repair", "closed-loop library calls: four sparsifiers on 10k edges and incremental repair on 100k edges, with no serve layer", nil},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fixture is a deterministic GenerateSocial graph written to the graph dir.
type fixture struct {
	name string
	n    int
	seed int64
}

var (
	fxS10k  = fixture{"s10k", 1000, 7}
	fxS10kB = fixture{"s10k-b", 1000, 8}
	fxS10kC = fixture{"s10k-c", 1000, 9}
	// fxS100k is the repair fixture; quick mode shrinks it to s10k size.
	fxS100k = fixture{"s100k", 10000, 7}
)

func (f fixture) generate(quick bool) (*ugs.Graph, error) {
	n := f.n
	if quick && n > 1000 {
		n = 1000
	}
	return ugs.GenerateSocial(ugs.SocialConfig{N: n, AvgDegree: 20, MeanProb: 0.09, Seed: f.seed})
}

// writeFixtures generates each fixture and writes it as .ugsb into dir,
// returning the in-memory graphs by name.
func writeFixtures(dir string, quick bool, fxs ...fixture) (map[string]*ugs.Graph, error) {
	graphs := make(map[string]*ugs.Graph, len(fxs))
	for _, f := range fxs {
		g, err := f.generate(quick)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", f.name, err)
		}
		if err := ugs.WriteBinaryGraphFile(filepath.Join(dir, f.name+".ugsb"), g); err != nil {
			return nil, fmt.Errorf("writing %s: %w", f.name, err)
		}
		graphs[f.name] = g
	}
	return graphs, nil
}

// exampleFiles are the committed graphs query_hot serves beside s10k,
// relative to the repository root.
var exampleFiles = []string{
	"examples/graphs/flickr60.ugs",
	"examples/graphs/tiny.ugs",
	"examples/graphs/twitter80.ugs",
	"examples/corpus/sample-social.ugsb",
}

// repoRoot finds the repository root from the working directory: the
// benchmark runs from the root (run.sh) or from bench/ (go run ., go test).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "examples", "graphs")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cannot find the repository's examples/ from the working directory")
}

// copyExamples copies the committed example graphs into dir and loads them,
// keyed by graph name (file base without extension).
func copyExamples(dir string) (map[string]*ugs.Graph, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	graphs := make(map[string]*ugs.Graph)
	for _, rel := range exampleFiles {
		src := filepath.Join(root, rel)
		dst := filepath.Join(dir, filepath.Base(rel))
		if err := copyFile(src, dst); err != nil {
			return nil, err
		}
		var g *ugs.Graph
		if filepath.Ext(rel) == ".ugsb" {
			g, err = ugs.OpenMappedGraph(dst)
		} else {
			g, err = ugs.ReadGraphFile(dst)
		}
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", rel, err)
		}
		ext := filepath.Ext(rel)
		graphs[filepath.Base(rel[:len(rel)-len(ext)])] = g
	}
	return graphs, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// op is one request of a serve workload's stream, built before the window
// so the load generator only sends prepared bytes.
type op struct {
	due    time.Duration // offset of the due time from the window start
	method string
	path   string
	body   []byte
	kind   string // query kind, "sparsify" or "patch"
	graph  string
	// after is the index of the previous patch on the same graph in the
	// measured stream (-1 if none): patches to one graph are sent one at a
	// time, in stream order.
	after int
	// verify marks a response checked after the window: a fixed-budget
	// query answer against a direct library call, a patch's version, or a
	// sparsify result's edge budget.
	verify bool
	query  *serve.QueryRequest
	// wantVersion is the version a verified patch must report.
	wantVersion int
}

// poissonDues returns the due times of n arrivals of a Poisson process
// conditioned on n arrivals in [0, window): n sorted uniform draws. Fixing n
// keeps the op count, and so the mix, identical across seeds.
func poissonDues(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	return dues
}

// opCount is the number of measured ops at rate per second over the window.
func opCount(rate float64, window time.Duration) int {
	return max(1, int(math.Round(rate*window.Seconds())))
}

// shuffledKinds returns n kinds in exact proportion to shares (the last
// kind absorbs rounding), in seeded random order.
func shuffledKinds(rng *rand.Rand, n int, kinds []string, shares []float64) []string {
	out := make([]string, 0, n)
	for i, k := range kinds {
		c := int(math.Round(shares[i] * float64(n)))
		if i == len(kinds)-1 {
			c = n - len(out)
		}
		for j := 0; j < c && len(out) < n; j++ {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// randomPairs draws k query pairs with distinct endpoints.
func randomPairs(rng *rand.Rand, n, k int) [][2]int {
	pairs := make([][2]int, k)
	for i := range pairs {
		s := rng.Intn(n)
		t := rng.Intn(n - 1)
		if t >= s {
			t++
		}
		pairs[i] = [2]int{s, t}
	}
	return pairs
}

// directAnswer recomputes a fixed-budget query with a direct library call —
// the value every served answer must equal bit for bit.
func directAnswer(ctx context.Context, g *ugs.Graph, q *serve.QueryRequest) ([]float64, error) {
	opts := ugs.MCOptions{Samples: q.Samples, Seed: q.Seed}
	switch q.Kind {
	case "reliability", "distance":
		pairs := make([]ugs.Pair, len(q.Pairs))
		for i, p := range q.Pairs {
			pairs[i] = ugs.Pair{S: p[0], T: p[1]}
		}
		sp, rl, err := ugs.ShortestDistanceAndReliability(ctx, g, pairs, opts)
		if q.Kind == "distance" {
			return sp, err
		}
		return rl, err
	case "connected":
		p, err := ugs.ConnectedProbability(ctx, g, opts)
		return []float64{p}, err
	case "pagerank":
		return ugs.ExpectedPageRank(ctx, g, opts, ugs.PageRankOptions{})
	case "clustering":
		return ugs.ExpectedClusteringCoefficients(ctx, g, opts)
	}
	return nil, fmt.Errorf("no direct call for kind %q", q.Kind)
}

// sameBits reports whether a served answer (null for NaN) equals the direct
// values bit for bit.
func sameBits(resp *serve.QueryResponse, want []float64) bool {
	got := resp.Values
	if resp.Value != nil {
		got = []*float64{resp.Value}
	}
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if got[i] == nil {
			if !math.IsNaN(w) {
				return false
			}
			continue
		}
		if math.Float64bits(*got[i]) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
