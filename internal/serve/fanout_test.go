package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"ugs"
)

// TestQueryFanOutIsBitIdentical: the fan_out request knob changes how many
// sources one traversal carries, never the estimates — every value must be
// served from the same fan-out-agnostic cache entry as the auto-planned
// query, echoing the requested setting.
func TestQueryFanOutIsBitIdentical(t *testing.T) {
	s, g := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(11))
	pairs := ugs.RandomPairs(g.NumVertices(), 16, rng)
	reqPairs := make([][2]int, len(pairs))
	for i, p := range pairs {
		reqPairs[i] = [2]int{p.S, p.T}
	}

	var ref QueryResponse
	base := map[string]any{"graph": "g", "kind": "reliability", "pairs": reqPairs, "samples": 128, "seed": 5}
	if w := do(t, s, "POST", "/v1/query", base, &ref); w.Code != 200 {
		t.Fatalf("base query: %d %s", w.Code, w.Body.String())
	}
	if ref.FanOut != "auto" {
		t.Errorf("default fan_out echoed as %q, want auto", ref.FanOut)
	}
	for _, fan := range []string{"auto", "1", "8"} {
		body := map[string]any{"graph": "g", "kind": "reliability", "pairs": reqPairs, "samples": 128, "seed": 5, "fan_out": fan}
		var resp QueryResponse
		if w := do(t, s, "POST", "/v1/query", body, &resp); w.Code != 200 {
			t.Fatalf("fan_out=%s: %d %s", fan, w.Code, w.Body.String())
		}
		if resp.FanOut != fan {
			t.Errorf("fan_out=%s echoed as %q", fan, resp.FanOut)
		}
		if !resp.Cached {
			t.Errorf("fan_out=%s: re-ran a fan-out-agnostic cached query", fan)
		}
		for i := range ref.Values {
			if *resp.Values[i] != *ref.Values[i] {
				t.Errorf("fan_out=%s pair %d: %v != %v", fan, i, *resp.Values[i], *ref.Values[i])
			}
		}
	}
	for _, bad := range []string{"0", "64", "97", "wide"} {
		body := map[string]any{"graph": "g", "kind": "reliability", "pairs": reqPairs, "fan_out": bad}
		if w := do(t, s, "POST", "/v1/query", body, nil); w.Code != 400 {
			t.Errorf("fan_out=%s: %d, want 400", bad, w.Code)
		}
	}
}

// TestCoalescedFanOutMatchesDirect: requests coalesced into one merged
// flight (explicit FanOut 8 pinned) must each receive results bit-identical
// to a direct per-source library call. The first request, random pairs
// only, flies alone while the gate holds it; the three queued behind it
// merge. Those riders bring 3, 3 and 2 sources with six targets each, past
// the pair-search cutoff of three, beside random pairs from other sources.
// So the merged flight runs one eight-source MSBFS group filled from all
// three requests, where each request alone would run one MaskBFS per
// source.
func TestCoalescedFanOutMatchesDirect(t *testing.T) {
	g := ugs.TwitterLike(90, 13)
	rng := rand.New(rand.NewSource(41))
	const seed, samples, fan = 19, 128, 8
	b, firstStarted, release := gatedBatcher(t)

	// request draws k random pairs from sources outside 10–17, then six
	// targets for each of srcs.
	request := func(k int, srcs ...int) []ugs.Pair {
		var pairs []ugs.Pair
		for _, p := range ugs.RandomPairs(g.NumVertices(), 2*k, rng) {
			if len(pairs) < k && (p.S < 10 || p.S > 17) {
				pairs = append(pairs, p)
			}
		}
		for _, src := range srcs {
			for i := 0; i < 6; i++ {
				pairs = append(pairs, ugs.Pair{S: src, T: (src + 11*i + 1) % g.NumVertices()})
			}
		}
		return pairs
	}
	reqPairs := [][]ugs.Pair{
		request(6),
		request(4, 10, 11, 12),
		request(5, 13, 14, 15),
		request(3, 16, 17),
	}

	type out struct {
		sp, rl []float64
		err    error
	}
	results := make([]out, len(reqPairs))
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, rl, err := b.PairQuery(context.Background(), "g@1", g, reqPairs[i],
				ugs.MCOptions{Seed: seed, Samples: samples, FanOut: fan})
			results[i] = out{sp, rl, err}
		}()
	}
	launch(0)
	<-firstStarted
	for i := 1; i < len(reqPairs); i++ {
		launch(i)
	}
	waitForPending(t, b, groupKey{graph: "g@1", seed: seed, samples: samples, fanout: fan}, len(reqPairs)-1)
	close(release)
	wg.Wait()

	for i, res := range results {
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		directSP, directRL, err := ugs.ShortestDistanceAndReliability(
			context.Background(), g, reqPairs[i], ugs.MCOptions{Seed: seed, Samples: samples, FanOut: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(res.sp, directSP) {
			t.Errorf("request %d: coalesced multi-source SP differs from direct per-source call\n got %v\nwant %v", i, res.sp, directSP)
		}
		if !sameFloats(res.rl, directRL) {
			t.Errorf("request %d: coalesced multi-source RL differs from direct per-source call\n got %v\nwant %v", i, res.rl, directRL)
		}
	}
}

// TestBatcherGroupsByFanOut: like seed and samples, an explicit fan-out is
// part of the group identity — requests pinning different fan-outs must fly
// separately (results are identical either way; the separation keeps the
// execution shape the client asked for).
func TestBatcherGroupsByFanOut(t *testing.T) {
	g := ugs.TwitterLike(60, 21)
	rng := rand.New(rand.NewSource(43))
	pairs := ugs.RandomPairs(g.NumVertices(), 4, rng)
	b := NewBatcher(context.Background(), 0)

	var wg sync.WaitGroup
	for _, fan := range []int{0, 1, 8} {
		wg.Add(1)
		go func(fan int) {
			defer wg.Done()
			sp, rl, err := b.PairQuery(context.Background(), "g@1", g, pairs,
				ugs.MCOptions{Seed: 3, Samples: 64, FanOut: fan})
			if err != nil {
				t.Errorf("fan=%d: %v", fan, err)
				return
			}
			directSP, directRL, err := ugs.ShortestDistanceAndReliability(
				context.Background(), g, pairs, ugs.MCOptions{Seed: 3, Samples: 64})
			if err != nil {
				t.Errorf("direct: %v", err)
				return
			}
			if !sameFloats(sp, directSP) || !sameFloats(rl, directRL) {
				t.Errorf("fan=%d: grouped run differs from direct", fan)
			}
		}(fan)
	}
	wg.Wait()
}
