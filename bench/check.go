package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of one (workload, metric) row of -check.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
	changed    = "changed" // a per-layer metric moved; it has no bound to judge by
)

// setupFloor is the absolute floor under setup_s: below it set-up is
// process start plus a few milliseconds, and a ratio of two such
// numbers says nothing about the program.
const setupFloor = 0.050

// compare judges new against base for one end-to-end metric. A positive
// delta is a worsening by that share of the base median.
//
// The rule (choosing-metrics guide, section 6): the new median may be
// worse than the base median by at most the bound. Where the runs
// spread wider than the bound, the medians cannot carry that judgement,
// so the row is unresolved unless every new run sits on one side of
// every base run. A zero bound is for counts that must not grow at all.
func compare(ms metricSpec, base, new summary) (verdict string, delta float64) {
	sign := worseSign(ms)
	delta = change(ms, base, new)
	if ms.Name == "setup_s" && base.Median < setupFloor && new.Median < setupFloor {
		return same, delta
	}
	if ms.Bound == 0 {
		switch {
		case delta > 0:
			return worse, delta
		case delta < 0:
			return better, delta
		}
		return same, delta
	}
	spread := max(base.Q3-base.Q1, new.Q3-new.Q1) / base.Median
	// allAbove(a, b): every sample of a reads worse than every one of b.
	allAbove := func(a, b summary) bool {
		if len(a.Samples) == 0 || len(b.Samples) == 0 {
			return false
		}
		if sign > 0 {
			return slices.Min(a.Samples) > slices.Max(b.Samples)
		}
		return slices.Max(a.Samples) < slices.Min(b.Samples)
	}
	switch {
	case spread > ms.Bound && allAbove(base, new):
		return better, delta
	case spread > ms.Bound && allAbove(new, base) && delta > ms.Bound:
		return worse, delta
	case spread > ms.Bound:
		return unresolved, delta
	case delta > ms.Bound:
		return worse, delta
	case delta < -spread:
		return better, delta
	}
	return same, delta
}

// worseSign is +1 when a larger value is worse, -1 when it is better.
func worseSign(ms metricSpec) float64 {
	if ms.Better == "higher" {
		return -1
	}
	return 1
}

// change is new's median against base's as a share of base's, positive
// in the metric's worse direction.
func change(ms metricSpec, base, new summary) float64 {
	if base.Median == 0 {
		return worseSign(ms) * new.Median // no base to take a share of: the absolute change
	}
	return worseSign(ms) * (new.Median - base.Median) / base.Median
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Workloads) == 0 {
		return f, fmt.Errorf("%s: no workloads", path)
	}
	return f, nil
}

// checkFiles prints one row per (workload, metric) present in both
// files and returns the exit code: 0 clean, 1 a regression, 2 unreadable
// input. Every ratio is printed with its base.
func checkFiles(w io.Writer, sp spec, basePath, newPath string) int {
	var files [2]resultsFile
	for i, path := range []string{basePath, newPath} {
		var err error
		if files[i], err = readResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench -check:", err)
			return 2
		}
	}
	return checkResults(w, sp, files[0], files[1])
}

func checkResults(w io.Writer, sp spec, base, other resultsFile) int {
	if base.Seed != other.Seed || base.Mode != other.Mode {
		fmt.Fprintf(w, "note: comparing mode %s seed %d against mode %s seed %d\n", base.Mode, base.Seed, other.Mode, other.Seed)
	}
	regressions := 0
	fmt.Fprintf(w, "%-15s %-34s %-8s %14s %14s %9s  %s\n", "workload", "metric", "unit", "base median", "new median", "change", "verdict")
	for _, b := range base.Workloads {
		i := slices.IndexFunc(other.Workloads, func(r result) bool { return r.Workload == b.Workload })
		if i < 0 {
			continue
		}
		n := other.Workloads[i]
		row := func(ms metricSpec, judge func(metricSpec, summary, summary) (string, float64)) {
			bs, ok1 := b.Metrics[ms.Name]
			ns, ok2 := n.Metrics[ms.Name]
			if !ok1 || !ok2 {
				return
			}
			verdict, delta := judge(ms, bs, ns)
			if verdict == worse {
				regressions++
			}
			fmt.Fprintf(w, "%-15s %-34s %-8s %14.6g %14.6g %+8.2f%%  %s\n", b.Workload, ms.Name, ms.Unit, bs.Median, ns.Median, 100*delta, verdict)
		}
		for _, ms := range sp.EndToEnd {
			row(ms, compare)
		}
		for _, ms := range sp.PerLayer {
			row(ms, func(ms metricSpec, bs, ns summary) (string, float64) {
				if ns.Median == bs.Median {
					return same, 0
				}
				return changed, change(ms, bs, ns)
			})
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s): a change of +x%% is x%% of the base median in the metric's worse direction\n", regressions)
		return 1
	}
	return 0
}
