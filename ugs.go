// Package ugs implements uncertain graph sparsification: given an uncertain
// (probabilistic) graph G = (V, E, p) and a ratio α ∈ (0, 1), it produces a
// subgraph G' = (V, E', p') with |E'| = α|E| that preserves G's structural
// properties (expected vertex degrees and expected cut sizes) while reducing
// its entropy, so that Monte-Carlo query estimation on G' is both faster per
// sample and needs fewer samples.
//
// The package is a from-scratch Go implementation of
//
//	P. Parchas, N. Papailiou, D. Papadias, F. Bonchi.
//	"Uncertain Graph Sparsification", TKDE 2018 / ICDE 2019 (extended
//	abstract), arXiv:1611.04308.
//
// It provides the paper's two sparsifiers — Gradient Descent Backbone (GDB)
// and Expectation-Maximization Degree (EMD) — together with the optimal
// LP probability assignment, the two deterministic-sparsification benchmarks
// adapted to uncertain graphs (Nagamochi–Ibaraki cuts and Baswana–Sen
// spanners), Monte-Carlo estimators for PageRank, shortest-path distance,
// reliability and clustering coefficient, and the statistics used to
// evaluate them.
//
// # Quick start
//
// Every method is a Sparsifier resolved by name from the registry and
// configured with functional options:
//
//	g, _ := ugs.ReadGraphFile("graph.txt")
//	sp, _ := ugs.Lookup("emd", ugs.WithDiscrepancy(ugs.Relative), ugs.WithSeed(1))
//	res, _ := sp.Sparsify(context.Background(), g, 0.25)
//	fmt.Println(res.Graph.NumEdges(), res.Stats.Iterations)
//
// ugs.Methods() lists the registered methods ("gdb", "emd", "lp", "ni",
// "ss" plus any custom registrations); long runs are cancellable through
// the context and observable through ugs.WithProgress. New methods plug in
// without touching the core:
//
//	ugs.MustRegister("mymethod", func(opts ...ugs.Option) (ugs.Sparsifier, error) {
//		return ugs.NewSparsifier("mymethod", run), nil
//	})
//
// See the examples/ directory for complete programs.
package ugs

import (
	"io"
	"math/rand"

	"ugs/internal/core"
	"ugs/internal/gen"
	"ugs/internal/mc"
	"ugs/internal/queries"
	"ugs/internal/repr"
	"ugs/internal/stats"
	"ugs/internal/ugraph"
)

// Core graph types.
type (
	// Graph is an uncertain undirected graph with per-edge existence
	// probabilities.
	Graph = ugraph.Graph
	// Edge is an undirected edge with probability P.
	Edge = ugraph.Edge
	// Builder incrementally assembles a Graph.
	Builder = ugraph.Builder
	// World is one sampled deterministic materialization of a Graph.
	World = ugraph.World
	// Vec is the word-vector constraint of the variable-width bit-parallel
	// engine: Vec64 and Vec256 carry 64 and 256 world lanes.
	Vec = ugraph.Vec
	// Vec64 is the one-word, 64-lane vector.
	Vec64 = ugraph.Vec64
	// Vec256 is the four-word, 256-lane vector.
	Vec256 = ugraph.Vec256
	// WorldBatch holds up to VecLanes[V] sampled worlds in lane-transposed
	// form (one lane mask per edge), the representation behind the
	// bit-parallel query engine. Fill it with SampleWorldBatch.
	WorldBatch[V Vec] = ugraph.WorldBatch[V]
	// MaskBFS is the reusable bit-parallel traversal over a WorldBatch:
	// one pass answers reachability and hop distance for every lane.
	MaskBFS[V Vec] = queries.MaskBFS[V]
	// MCTarget is a sequential-stopping accuracy target (see WithConfidence).
	MCTarget = mc.Target
	// MCRunInfo reports what a Monte-Carlo run did: samples drawn, adaptive
	// rounds, and whether a confidence target converged.
	MCRunInfo = mc.RunInfo
	// FillCache memoizes deterministic 64-lane world fills across
	// Monte-Carlo runs (see MCOptions.FillCache): implementations must be
	// safe for concurrent use and treat stored blocks as immutable.
	FillCache = ugraph.FillCache
	// FillKey identifies one cached 64-lane fill block: (content-versioned
	// graph identity, base seed, block index).
	FillKey = ugraph.FillKey
)

// NewWorldBatch returns an empty world batch of width V for a graph.
func NewWorldBatch[V Vec](g *Graph) *WorldBatch[V] { return ugraph.NewWorldBatch[V](g) }

// NewMaskBFS returns a mask-BFS of width V sized for n vertices.
func NewMaskBFS[V Vec](n int) *MaskBFS[V] { return queries.NewMaskBFS[V](n) }

// SampleWorldBatch redraws a batch so lane l is bit-identical to the world
// SampleWorldSeeded(seeds[l]) produces, at every width.
func SampleWorldBatch[V Vec](g *Graph, seeds []int64, b *WorldBatch[V]) {
	ugraph.SampleBatchSeeded(g, seeds, b)
}

// FillKernel names the world-fill implementation this process runs:
// "avx512" on CPUs with AVX-512F and AVX-512DQ whose OS saves the ZMM
// state, "portable" elsewhere. The choice is made once, from CPUID; both
// draw bit-identical worlds, so it changes only how long a fill takes.
func FillKernel() string { return ugraph.FillKernel() }

var (
	// WithConfidence builds the MCOptions.Target for sequential stopping:
	// sample until every tracked estimate's CI half-width is ≤ eps at
	// confidence 1−delta.
	WithConfidence = mc.WithConfidence
	// ParseLanes resolves a -lanes flag value ("auto", "1", "64", "256") to
	// the MCOptions.Lanes encoding.
	ParseLanes = mc.ParseLanes
	// FormatLanes is the inverse of ParseLanes.
	FormatLanes = mc.FormatLanes
	// ParseFanOut resolves a -fan-out flag value ("auto", "1", "8") to the
	// MCOptions.FanOut encoding: how many distinct query sources one source
	// traversal of a pair estimator carries. Pairs whose source has few
	// targets run pair searches, which no fan-out applies to.
	ParseFanOut = mc.ParseFanOut
	// FormatFanOut is the inverse of ParseFanOut.
	FormatFanOut = mc.FormatFanOut
)

// ReadLimits bounds the vertex/edge counts a text-format header may
// declare before parsing allocates anything: the strict zero-value
// default guards untrusted input (HTTP uploads), TrustedReadLimits admits
// binary-era graph sizes from local files.
type ReadLimits = ugraph.ReadLimits

// TrustedReadLimits admits anything the binary format could hold; used by
// ReadGraphFile for operator-chosen local files.
var TrustedReadLimits = ugraph.TrustedReadLimits

// Graph construction and I/O.
var (
	// NewGraph builds a graph from an edge list, validating endpoints and
	// probabilities.
	NewGraph = ugraph.New
	// NewBuilder returns a Builder for a graph with n vertices.
	NewBuilder = ugraph.NewBuilder
	// ReadGraph parses the text interchange format under the strict
	// untrusted-input limits.
	ReadGraph = ugraph.Read
	// ReadGraphWithLimits parses the text format under explicit limits.
	ReadGraphWithLimits = ugraph.ReadWithLimits
	// ReadGraphFile parses a graph file under TrustedReadLimits.
	ReadGraphFile = ugraph.ReadFile
	// WriteGraphFile writes a graph file.
	WriteGraphFile = ugraph.WriteFile
	// OpenMappedGraph opens a .ugsb binary graph as a read-only view
	// backed by a memory mapping: load = map + validate, zero parse. The
	// CSR accessors, sparsifiers and the query engine run directly over
	// mapped memory. Close the graph to release the mapping.
	OpenMappedGraph = ugraph.OpenMapped
	// OpenMappedGraphTrusted is OpenMappedGraph with header-only
	// validation (O(1) open) for files from trusted producers.
	OpenMappedGraphTrusted = ugraph.OpenMappedTrusted
	// WriteBinaryGraphFile writes a graph in the .ugsb binary format —
	// lossless, including p = 0 edges and exact probability bits.
	WriteBinaryGraphFile = ugraph.WriteBinaryFile
	// EdgeEntropy is the binary entropy of one edge probability.
	EdgeEntropy = ugraph.EdgeEntropy
	// RelativeEntropy is H(sparse)/H(original).
	RelativeEntropy = ugraph.RelativeEntropy
)

// Streaming edge updates (dynamic uncertain graphs).
type (
	// EdgeEdit is one streaming update: insert, delete or reweight an
	// undirected edge. Endpoint order does not matter.
	EdgeEdit = ugraph.EdgeEdit
	// EditOp enumerates the edit operations; its String form ("insert",
	// "delete", "reweight") round-trips through ParseEditOp.
	EditOp = ugraph.EditOp
	// EditError reports why an edit batch was rejected (batches are atomic).
	EditError = ugraph.EditError
	// EditResult is ApplyEdits' outcome: the post-edit graph plus the
	// old-to-new edge id mapping.
	EditResult = ugraph.EditResult
	// EditLog accumulates applied batches so a base graph plus the log
	// reconstructs the current graph (the patch log behind evict/reload).
	EditLog = ugraph.EditLog
	// Dynamic is an incrementally repairable sparsifier: Repair applies an
	// edit batch and restores the sparsified state with bounded work,
	// reproducing what a from-scratch replay of the same pipeline would
	// compute. NewDynamic copies its input graph and Repair edits that copy
	// in place, so the graph Graph returns stays valid only until the next
	// Repair. So does a graph derived from it by a reweight-only ApplyEdits,
	// which shares its CSR; Clone either to keep it longer.
	Dynamic = core.Dynamic
	// DynOptions configures NewDynamic (GDB or EMD at k = 1 only).
	DynOptions = core.DynOptions
	// RepairStats reports one Repair call: dirty region size, sweeps run,
	// backbone churn and the resulting objective.
	RepairStats = core.RepairStats
)

// Edit operations.
const (
	// EditInsert adds a new edge with probability P.
	EditInsert = ugraph.EditInsert
	// EditDelete removes an existing edge.
	EditDelete = ugraph.EditDelete
	// EditReweight replaces an existing edge's probability with P.
	EditReweight = ugraph.EditReweight
)

var (
	// ApplyEdits applies an atomic edit batch to a graph, returning the
	// post-edit graph and the id mapping; the input is never modified.
	ApplyEdits = ugraph.ApplyEdits
	// ParseEditOp resolves "insert", "delete" or "reweight".
	ParseEditOp = ugraph.ParseEditOp
	// ReplayEdits applies a sequence of edit batches in order.
	ReplayEdits = ugraph.ReplayEdits
	// NewDynamic builds the initial sparsified state of a dynamic
	// sparsifier, keeping the optimizer state for later Repair calls.
	NewDynamic = core.NewDynamic
)

// WriteGraph writes g in the text interchange format.
func WriteGraph(w io.Writer, g *Graph) error { return ugraph.Write(w, g) }

// WriteBinaryGraph writes g in the .ugsb binary format.
func WriteBinaryGraph(w io.Writer, g *Graph) error { return ugraph.WriteBinary(w, g) }

// Sparsification configuration (see internal/core for full documentation).
type (
	// Method enumerates the built-in sparsification methods; its String
	// form is the registry name.
	Method = core.Method
	// Discrepancy selects absolute or relative degree discrepancy.
	Discrepancy = core.Discrepancy
	// Backbone selects the backbone construction.
	Backbone = core.Backbone
	// RunStats is the uniform per-run statistics of every Sparsifier:
	// iteration counts, the final objective, and per-method diagnostics.
	RunStats = core.RunStats
)

// Sparsification methods and parameters.
const (
	// MethodGDB optimizes edge probabilities on a fixed backbone
	// (Algorithm 2).
	MethodGDB = core.MethodGDB
	// MethodEMD additionally restructures the backbone (Algorithm 3).
	MethodEMD = core.MethodEMD
	// MethodLP solves the optimal probability-assignment LP (Theorem 1);
	// small graphs only.
	MethodLP = core.MethodLP
	// MethodNI is the Nagamochi–Ibaraki cut-sparsifier benchmark.
	MethodNI = core.MethodNI
	// MethodSS is the Baswana–Sen spanner benchmark.
	MethodSS = core.MethodSS
	// Absolute discrepancy emphasizes high-degree vertices.
	Absolute = core.Absolute
	// Relative discrepancy treats all degrees equally.
	Relative = core.Relative
	// BackboneSpanning is Algorithm 1 (connected backbone).
	BackboneSpanning = core.BackboneSpanning
	// BackboneRandom samples the backbone by edge probability.
	BackboneRandom = core.BackboneRandom
	// KAll requests the k = n cut rule (global redistribution).
	KAll = core.KAll
	// HZero requests a true h = 0 entropy parameter.
	HZero = core.HZero
)

// Parse/format round-trips: each Parse function is the inverse of the
// corresponding String method, so flag and request values round-trip.
var (
	// ParseMethod resolves "gdb", "emd", "lp", "ni" or "ss" to a Method.
	ParseMethod = core.ParseMethod
	// ParseDiscrepancy resolves "absolute" or "relative".
	ParseDiscrepancy = core.ParseDiscrepancy
	// ParseBackbone resolves "spanning" or "random".
	ParseBackbone = core.ParseBackbone
)

// MAEDegreeDiscrepancy is the mean absolute degree discrepancy between a
// graph and its sparsification.
func MAEDegreeDiscrepancy(orig, sparse *Graph, dt Discrepancy) float64 {
	return core.MAEDegreeDiscrepancy(orig, sparse, dt)
}

// MAECutDiscrepancy estimates the mean absolute expected-cut discrepancy on
// sampled vertex sets of cardinality 1..maxK.
func MAECutDiscrepancy(orig, sparse *Graph, maxK, cutsPerK int, rng *rand.Rand) float64 {
	return core.MAECutDiscrepancy(orig, sparse, maxK, cutsPerK, rng)
}

// Monte-Carlo query evaluation.
type (
	// MCOptions configures sample counts, seeding and parallelism.
	MCOptions = mc.Options
	// StratifiedOptions configures the variance-reduced stratified
	// estimator (conditioning on the highest-entropy edges).
	StratifiedOptions = mc.StratifiedOptions
	// Pair is a source/target pair for SP and RL queries.
	Pair = queries.Pair
	// PageRankOptions tunes damping and power iterations.
	PageRankOptions = queries.PageRankOptions
)

// Every Monte-Carlo estimator takes a context.Context as its first argument
// and returns an error alongside its estimate: cancelling the context
// (timeout, request abort) stops the sampling run promptly, mirroring the
// Sparsifier interface's cancellation story. Estimates are deterministic
// given (graph, MCOptions.Seed) and bit-identical for every Workers value —
// the engine samples each world from a per-index seed and merges fixed
// accumulation blocks in index order.
//
// Reliability, ShortestDistance{,AndReliability} and ConnectedProbability
// run on the bit-parallel batch engine (WorldBatch + mask-BFS: one
// traversal answers a full lane vector of sampled worlds) at every sample
// budget. MCOptions.Lanes selects the width — 64 or 256 lanes, 1 for the
// scalar reference (one BFS per source per sampled world), or 0 for the
// planner's fixed rule over query kind and sample budget — MCOptions.FanOut
// the source group size of 64-lane source traversals, and MCOptions.Target
// switches from a fixed sample budget to sequential stopping, whose rounds
// are each planned from their own budget. Every width and fan-out and both
// fixed and adaptive schedules produce bit-identical estimates on the same
// seed.
var (
	// ExpectedPageRank estimates per-vertex expected PageRank.
	ExpectedPageRank = queries.ExpectedPageRank
	// ExpectedClusteringCoefficients estimates per-vertex expected local
	// clustering coefficients.
	ExpectedClusteringCoefficients = queries.ExpectedClusteringCoefficients
	// Reliability estimates per-pair reachability probability.
	Reliability = queries.Reliability
	// ShortestDistance estimates per-pair expected distance conditioned
	// on reachability.
	ShortestDistance = queries.ShortestDistance
	// ShortestDistanceAndReliability computes both in one MC pass.
	ShortestDistanceAndReliability = queries.ShortestDistanceAndReliability
	// ReliabilityRun is Reliability plus the run report (samples drawn,
	// adaptive rounds, convergence).
	ReliabilityRun = queries.ReliabilityRun
	// ShortestDistanceAndReliabilityRun adds the run report to the one-pass
	// SP+RL estimator.
	ShortestDistanceAndReliabilityRun = queries.ShortestDistanceAndReliabilityRun
	// ConnectedProbability estimates Pr[G is connected].
	ConnectedProbability = queries.ConnectedProbability
	// ConnectedProbabilityRun adds the run report to ConnectedProbability.
	ConnectedProbabilityRun = queries.ConnectedProbabilityRun
	// RandomPairs draws random query pairs.
	RandomPairs = queries.RandomPairs
	// ExactProbabilityOf evaluates a world predicate exactly by
	// exhaustive enumeration (tiny graphs).
	ExactProbabilityOf = mc.ExactProbabilityOf
	// StratifiedProbabilityOf estimates Pr[pred] with stratified
	// sampling over the highest-entropy edges: unbiased, with variance
	// at most plain Monte-Carlo's for the same budget.
	StratifiedProbabilityOf = mc.StratifiedProbabilityOf
)

// Evaluation statistics.
var (
	// EarthMovers is the earth mover's distance between two observation
	// samples (Equation 17).
	EarthMovers = stats.EarthMovers
	// MAE is the mean absolute error between paired observations.
	MAE = stats.MAE
	// EstimatorVariance reports the mean and unbiased variance of a
	// repeated Monte-Carlo estimator.
	EstimatorVariance = stats.EstimatorVariance
	// SamplesForWidth converts an estimator's σ into the MC sample count
	// needed for a target 95% confidence width.
	SamplesForWidth = stats.SamplesForWidth
)

// Representative instances (the prior approach of [29, 30], Section 2.3):
// deterministic graphs with preserved expected degrees. Provided as a
// comparator — representatives answer deterministic queries cheaply but
// cannot answer probabilistic ones, unlike sparsified uncertain graphs.
var (
	// ExpectedDegreeRepresentative extracts a zero-entropy deterministic
	// representative by rounding plus greedy rewiring.
	ExpectedDegreeRepresentative = repr.ExpectedDegreeRepresentative
	// MostProbableWorld rounds every edge at p ≥ 0.5.
	MostProbableWorld = repr.MostProbableWorld
)

// RepresentativeOptions tunes representative extraction.
type RepresentativeOptions = repr.Options

// Synthetic dataset generation.
type SocialConfig = gen.SocialConfig

var (
	// GenerateSocial builds a Chung–Lu power-law uncertain graph.
	GenerateSocial = gen.Social
	// FlickrLike and TwitterLike are the presets used by the experiment
	// harness in place of the paper's datasets.
	FlickrLike  = gen.FlickrLike
	TwitterLike = gen.TwitterLike
	// Densify adds random edges up to a density target (the paper's
	// synthetic family).
	Densify = gen.Densify
	// ForestFire samples an induced subgraph by the forest-fire process.
	ForestFire = gen.ForestFire
	// StreamSocial generates a Chung–Lu power-law graph straight into a
	// .ugsb file in O(N) memory — the million-edge corpus path.
	StreamSocial = gen.StreamSocial
)
