package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Verdicts of a comparison: a gain needs the head to win at least nine
// pairs in ten and to move the median by more than the base's own quartile
// spread; a regression is a median worse by more than the metric's bound;
// when either side's spread is wider than the bound the metric is
// unresolved unless one side beats the other in every run.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judgement is the comparison of one metric's runs on two commits.
type judgement struct {
	base, head [3]float64 // q1, median, q3
	change     float64    // relative change of the median; > 0 means worse
	won        float64    // share of index-paired runs the head won
	spread     float64    // the wider relative interquartile range
	verdict    string
}

func judge(def metricDef, base, head []float64) judgement {
	j := judgement{base: quartileCuts(base), head: quartileCuts(head)}
	better := func(a, b float64) bool { // a reads better than b
		if def.lowerIsBetter() {
			return a < b
		}
		return a > b
	}
	mb, mh := j.base[1], j.head[1]
	switch {
	case mb != 0:
		j.change = (mh - mb) / math.Abs(mb)
	case mh != mb:
		j.change = math.Inf(1)
	}
	if !def.lowerIsBetter() {
		j.change = -j.change
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	if pairs > 0 {
		j.won = float64(wins) / float64(pairs)
	}
	j.spread = max(relSpread(base), relSpread(head))
	allBetter, allWorse := true, true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
			allWorse = allWorse && better(b, h)
		}
	}
	switch {
	case j.spread > def.Bound && allBetter:
		j.verdict = improved
	case j.spread > def.Bound && allWorse && j.change > def.Bound:
		j.verdict = regressed
	case j.spread > def.Bound:
		j.verdict = unresolved
	case j.change > def.Bound:
		j.verdict = regressed
	case j.won >= 0.9 && better(mh, mb) && math.Abs(mh-mb) > j.base[2]-j.base[0]:
		j.verdict = improved
	default:
		j.verdict = unchanged
	}
	return j
}

// loadRuns pools the runs of comma-separated results files by workload. A
// set holding an invalid run — one that failed verification or broke a
// validity rule — is refused: its numbers do not describe the program.
func loadRuns(paths string) (map[string]*workloadResults, []string, error) {
	pooled := map[string]*workloadResults{}
	var order []string
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var res resultsFile
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if res.Schema != resultsSchema {
			return nil, nil, fmt.Errorf("%s: schema %q, want %q", path, res.Schema, resultsSchema)
		}
		for _, w := range res.Workloads {
			for _, r := range w.Runs {
				if !r.Valid {
					return nil, nil, fmt.Errorf("%s: %s run with seed %d is invalid; rerun the set", path, w.Name, r.Seed)
				}
			}
			p, ok := pooled[w.Name]
			if !ok {
				p = &workloadResults{Name: w.Name}
				pooled[w.Name] = p
				order = append(order, w.Name)
			}
			p.Runs = append(p.Runs, w.Runs...)
		}
	}
	return pooled, order, nil
}

// runCompare prints a verdict for every workload × end-to-end metric and
// exits 1 if any metric regressed beyond its bound.
func runCompare(basePaths, headPaths string, stdout, stderr io.Writer) int {
	base, order, err := loadRuns(basePaths)
	if err == nil {
		var head map[string]*workloadResults
		if head, _, err = loadRuns(headPaths); err == nil {
			return printComparison(stdout, base, head, order)
		}
	}
	fmt.Fprintln(stderr, "compare:", err)
	return 2
}

func printComparison(out io.Writer, base, head map[string]*workloadResults, order []string) int {
	regressions := 0
	fmt.Fprintf(out, "%-16s %-16s %26s %26s %8s %5s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "won", "spread", "verdict")
	for _, name := range order {
		h, ok := head[name]
		if !ok {
			fmt.Fprintf(out, "%-16s (no head runs)\n", name)
			continue
		}
		b := base[name]
		for _, def := range endToEnd {
			bs, hs := b.series(def.Name), h.series(def.Name)
			if len(bs) == 0 || len(hs) == 0 {
				continue
			}
			j := judge(def, bs, hs)
			if j.verdict == regressed {
				regressions++
			}
			fmt.Fprintf(out, "%-16s %-16s %26s %26s %+7.1f%% %4.0f%% %5.1f%%  %s (bound %g%%)\n",
				name, def.Name, cuts(j.base), cuts(j.head), 100*j.change, 100*j.won, 100*j.spread, j.verdict, 100*def.Bound)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(out, "%d metric(s) regressed beyond their bound\n", regressions)
		return 1
	}
	return 0
}

func cuts(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
