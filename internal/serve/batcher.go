package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ugs"
	"ugs/internal/faults"
)

// Batcher coalesces concurrent SP/RL queries against the same graph into
// shared Monte-Carlo flights. All requests with the same (graph, seed,
// samples) form a group; a flight concatenates the group's pending pair
// lists and evaluates them in ONE ShortestDistanceAndReliability run — one
// mc.ReduceBatch pass whose WorldBatch fills and traversals are shared by
// every rider. The engine's amortization therefore works across requests,
// not just within one: each traversal answers 64 or 256 worlds at once
// (lanes), and the merged pair list is routed as one query — a source with
// few targets gets one pair search per pair, while a source that collects
// many targets across riders is settled by one source traversal, and the
// multi-source kernels walk one shared frontier for a group of those
// sources (fan-out), so riders contributing different sources still split
// the cost of one arc stream.
//
// Merging is exact, not approximate: the engine accumulates each pair's
// counters independently and folds fixed sample blocks in index order, and
// sample i is always drawn from the deterministic stream (seed, i) — so a
// pair's result in a merged flight is bit-identical to a direct library
// call for the same (graph, seed, samples), no matter which other requests
// shared the worlds (asserted by TestCoalescedMatchesDirect).
//
// Scheduling is the timer-free conveyor pattern: the first request of a
// group starts a flight immediately (no added latency at low load); requests
// arriving while that flight runs queue up and are all served by the next
// flight. Throughput under load rises with concurrency while each request
// still observes at most two flight durations of latency.
type Batcher struct {
	// lifetime bounds flights, which deliberately outlive any individual
	// request's context: a rider abandoning its wait must not cancel the
	// worlds other riders are being served from. Each flight runs under a
	// cancellable child of lifetime, though — when EVERY rider of a running
	// flight has abandoned it, the flight is cancelled so the Monte-Carlo
	// engine stops at its next block boundary instead of computing answers
	// nobody will read (that is how request deadlines propagate into merged
	// flights at batch granularity).
	lifetime context.Context
	run      pairRunner
	workers  int
	faults   *faults.Injector

	mu     sync.Mutex
	groups map[groupKey]*batchGroup

	flights          atomic.Int64
	requests         atomic.Int64
	coalesced        atomic.Int64
	maxFlight        atomic.Int64
	abandonedFlights atomic.Int64
	panics           atomic.Int64
}

// pairRunner evaluates the merged pair list; swapped out by tests to gate
// flight timing deterministically.
type pairRunner func(ctx context.Context, g *ugs.Graph, pairs []ugs.Pair, opts ugs.MCOptions) (sp, rl []float64, err error)

// groupKey identifies queries that may share possible worlds: same resident
// graph (versioned ID), same deterministic sample stream, and same engine
// shape. Workers is excluded — it cannot change results. Lanes and fanout
// cannot either (every width and source group size is bit-identical), but
// they are explicit execution choices, so requests pinning different widths
// or fan-outs fly separately rather than silently running at whatever shape
// arrived first.
type groupKey struct {
	graph   string
	seed    int64
	samples int
	lanes   int
	fanout  int
}

type batchGroup struct {
	key     groupKey
	g       *ugs.Graph
	opts    ugs.MCOptions
	pending []*pairReq
	active  bool
}

// flightRun tracks the riders of one running flight. live counts riders
// still waiting on it; the last abandoning rider cancels the flight context.
// All transitions happen under the batcher mutex.
type flightRun struct {
	live   int
	cancel context.CancelFunc
}

type pairReq struct {
	pairs  []ugs.Pair
	done   chan struct{}
	sp, rl []float64
	err    error
	grp    *batchGroup // for removal from pending on early abandon
	flight *flightRun  // non-nil once drafted into a running flight
}

// NewBatcher returns a batcher whose flights live until lifetime is
// cancelled and run with the given Monte-Carlo parallelism (0 = GOMAXPROCS).
func NewBatcher(lifetime context.Context, workers int) *Batcher {
	return &Batcher{
		lifetime: lifetime,
		run:      ugs.ShortestDistanceAndReliability,
		workers:  workers,
		groups:   make(map[groupKey]*batchGroup),
	}
}

// PairQuery evaluates the SP and RL estimates for pairs on g, riding a
// shared flight when other requests with the same (graphID, seed, samples,
// lanes, fan-out) are in the system. opts carries the fixed-budget engine
// options (Seed, Samples, Lanes, FanOut, FillCache/FillID); Workers is
// overridden by the batcher's own setting and opts.Target must be nil —
// adaptive runs bypass the batcher, because merging pair lists would move
// their stopping point. ctx bounds only this caller's wait: giving up
// abandons the results but never the flight.
func (b *Batcher) PairQuery(ctx context.Context, graphID string, g *ugs.Graph, pairs []ugs.Pair, opts ugs.MCOptions) (sp, rl []float64, err error) {
	b.requests.Add(1)
	req := &pairReq{pairs: pairs, done: make(chan struct{})}
	key := groupKey{graph: graphID, seed: opts.Seed, samples: opts.Samples, lanes: opts.Lanes, fanout: opts.FanOut}

	b.mu.Lock()
	grp, ok := b.groups[key]
	if !ok {
		grp = &batchGroup{key: key, g: g, opts: opts}
		b.groups[key] = grp
	}
	req.grp = grp
	grp.pending = append(grp.pending, req)
	if !grp.active {
		grp.active = true
		go b.flightLoop(grp)
	}
	b.mu.Unlock()

	select {
	case <-req.done:
		return req.sp, req.rl, req.err
	case <-ctx.Done():
		b.abandon(req)
		return nil, nil, ctx.Err()
	}
}

// abandon detaches a rider whose context expired: removed from the pending
// queue if not yet drafted, otherwise struck from its flight's live count —
// and the rider whose departure empties a flight cancels it, so a merged
// run whose every requester hit its deadline stops early instead of running
// the full sample budget for nobody.
func (b *Batcher) abandon(req *pairReq) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-req.done:
		return // results landed while we took the lock; nothing to undo
	default:
	}
	if fl := req.flight; fl != nil {
		fl.live--
		if fl.live == 0 {
			fl.cancel()
			b.abandonedFlights.Add(1)
		}
		return
	}
	pending := req.grp.pending
	for i, r := range pending {
		if r == req {
			req.grp.pending = append(pending[:i], pending[i+1:]...)
			return
		}
	}
}

// flightLoop drains a group: each iteration takes everything pending and
// serves it in one merged run, until a drain finds the group empty and
// retires it.
func (b *Batcher) flightLoop(grp *batchGroup) {
	for {
		fctx, fcancel := context.WithCancel(b.lifetime)
		b.mu.Lock()
		reqs := grp.pending
		grp.pending = nil
		if len(reqs) == 0 {
			grp.active = false
			delete(b.groups, grp.key)
			b.mu.Unlock()
			fcancel()
			return
		}
		// Draft the riders: from here, an expiring rider decrements live
		// instead of leaving pending, and the last one out cancels fctx.
		fl := &flightRun{live: len(reqs), cancel: fcancel}
		for _, r := range reqs {
			r.flight = fl
		}
		b.mu.Unlock()

		b.flights.Add(1)
		if n := int64(len(reqs)); n > 1 {
			b.coalesced.Add(n - 1)
		}
		for prev := b.maxFlight.Load(); int64(len(reqs)) > prev; prev = b.maxFlight.Load() {
			if b.maxFlight.CompareAndSwap(prev, int64(len(reqs))) {
				break
			}
		}

		total := 0
		for _, r := range reqs {
			total += len(r.pairs)
		}
		merged := make([]ugs.Pair, 0, total)
		for _, r := range reqs {
			merged = append(merged, r.pairs...)
		}
		opts := grp.opts
		opts.Workers = b.workers
		sp, rl, err := b.runFlight(fctx, grp.g, merged, opts)
		fcancel()
		// Detach the riders before delivering: a rider whose deadline fires
		// after this point must not touch the settled flight's counters.
		b.mu.Lock()
		for _, r := range reqs {
			r.flight = nil
		}
		b.mu.Unlock()
		off := 0
		for _, r := range reqs {
			n := len(r.pairs)
			if err != nil {
				r.err = err
			} else {
				r.sp = sp[off : off+n : off+n]
				r.rl = rl[off : off+n : off+n]
			}
			off += n
			close(r.done)
		}
	}
}

// runFlight executes one merged run with panic containment: a panicking
// estimator (or an injected batcher.flight fault) fails this flight's riders
// with a clean error instead of killing the process, and the conveyor keeps
// serving subsequent flights.
func (b *Batcher) runFlight(ctx context.Context, g *ugs.Graph, pairs []ugs.Pair, opts ugs.MCOptions) (sp, rl []float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			b.panics.Add(1)
			sp, rl = nil, nil
			err = fmt.Errorf("batcher: recovered flight panic: %v", v)
		}
	}()
	if err := b.faults.Check("batcher.flight"); err != nil {
		return nil, nil, err
	}
	return b.run(ctx, g, pairs, opts)
}

// BatcherStats is a point-in-time counter snapshot.
type BatcherStats struct {
	Flights   int64 `json:"flights"`
	Requests  int64 `json:"requests"`
	Coalesced int64 `json:"coalesced"`
	MaxFlight int64 `json:"max_flight_requests"`
	// AbandonedFlights counts flights cancelled because every rider's
	// deadline expired; Panics counts estimator panics contained to one
	// flight's riders.
	AbandonedFlights int64 `json:"abandoned_flights"`
	Panics           int64 `json:"panics"`
}

// Stats snapshots the batcher counters. Coalesced counts requests that
// shared a flight started for (or with) another request.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Flights:          b.flights.Load(),
		Requests:         b.requests.Load(),
		Coalesced:        b.coalesced.Load(),
		MaxFlight:        b.maxFlight.Load(),
		AbandonedFlights: b.abandonedFlights.Load(),
		Panics:           b.panics.Load(),
	}
}
