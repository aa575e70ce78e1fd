package main

import (
	"sync"
	"testing"
	"time"
)

// A stalled request must show up in the latency of every request due while
// it stalls: the open loop keeps sending on schedule and times each request
// from its due time, not from when a server worker picked it up.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	dues := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond, 400 * time.Millisecond}
	var mu sync.Mutex // the stub server handles one request at a time
	res := openLoop(len(dues),
		func(i int) time.Duration { return dues[i] },
		func(int) int { return -1 },
		func(i int) bool {
			mu.Lock()
			defer mu.Unlock()
			if i == 0 {
				time.Sleep(stall)
			}
			return true
		})
	for i := 1; i <= 3; i++ {
		if want := stall - dues[i]; res.latency[i] < want {
			t.Errorf("request %d due at %v: latency %v, want ≥ %v (it queued behind the stall)", i, dues[i], res.latency[i], want)
		}
		if res.lag[i] > 15*time.Millisecond {
			t.Errorf("request %d sent %v late: the stall held up the load generator", i, res.lag[i])
		}
	}
	if res.latency[4] > 50*time.Millisecond {
		t.Errorf("request due after the stall took %v", res.latency[4])
	}
	if got := res.end.Sub(res.start); got < dues[4] {
		t.Errorf("window %v ended before the last due time %v", got, dues[4])
	}
}

// Patches to one graph are chained: a patch never starts before the previous
// one on its graph has finished.
func TestOpenLoopChainsDependentOps(t *testing.T) {
	ops := []op{{kind: "patch", graph: "a"}, {kind: "reliability", graph: "a"}, {kind: "patch", graph: "a"}, {kind: "patch", graph: "b"}}
	linkPatches(ops)
	if ops[0].after != -1 || ops[1].after != -1 || ops[2].after != 0 || ops[3].after != -1 {
		t.Fatalf("links = %d %d %d %d, want -1 -1 0 -1", ops[0].after, ops[1].after, ops[2].after, ops[3].after)
	}
	var mu sync.Mutex
	finished := map[int]time.Time{}
	started := map[int]time.Time{}
	openLoop(len(ops),
		func(int) time.Duration { return 0 },
		func(i int) int { return ops[i].after },
		func(i int) bool {
			mu.Lock()
			started[i] = time.Now()
			mu.Unlock()
			if i == 0 {
				time.Sleep(50 * time.Millisecond)
			}
			mu.Lock()
			finished[i] = time.Now()
			mu.Unlock()
			return true
		})
	if started[2].Before(finished[0]) {
		t.Error("the second patch on graph a started before the first finished")
	}
}

func TestClosedLoopRunsForTheWindow(t *testing.T) {
	window := 50 * time.Millisecond
	res := closedLoop(window, func(int) bool { time.Sleep(time.Millisecond); return true })
	if n := len(res.latency); n < 10 || n != len(res.ok) {
		t.Fatalf("%d ops (%d results) in a %v window of 1 ms ops", n, len(res.ok), window)
	}
	if got := res.end.Sub(res.start); got < window {
		t.Errorf("closed loop stopped after %v < %v", got, window)
	}
}
