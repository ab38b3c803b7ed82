package main

import (
	"errors"
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// smokeOpts measures in this process at test size: one iteration per
// workload, so the whole file runs in a few seconds.
func smokeOpts(t *testing.T) runOpts {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return runOpts{spec: sp, seed: 1, seconds: 0, smoke: true, spawn: runIteration}
}

func names(specs []metricSpec) []string {
	var out []string
	for _, ms := range specs {
		out = append(out, ms.Name)
	}
	slices.Sort(out)
	return out
}

// Every metric BENCHMARK.json declares is emitted by every workload, and
// nothing is emitted that it does not declare.
func TestEmittedMetricsAreExactlyTheDeclaredOnes(t *testing.T) {
	o := smokeOpts(t)
	endToEnd, perLayer := names(o.spec.EndToEnd), names(o.spec.PerLayer)
	declared := append(slices.Clone(endToEnd), perLayer...)
	micro := slices.Sorted(maps.Keys(runLayers(true)))

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := measure(w, o)
			if !plain.correct() || plain.Failed != 0 {
				t.Errorf("untraced run: %d failed, checks %v", plain.Failed, plain.Checks)
			}
			emitted := slices.Sorted(maps.Keys(plain.Metrics))
			for _, name := range endToEnd {
				if !slices.Contains(emitted, name) {
					t.Errorf("end-to-end metric %s is declared but not emitted", name)
				} else if plain.Metrics[name].Median <= 0 {
					t.Errorf("end-to-end metric %s = %g; the contract wants metrics that are never 0", name, plain.Metrics[name].Median)
				}
			}
			for _, name := range emitted {
				if !slices.Contains(declared, name) {
					t.Errorf("untraced run emits undeclared metric %s", name)
				}
			}

			traced := o
			traced.traced = true
			res := measure(w, traced)
			if !res.correct() || res.Failed != 0 {
				t.Errorf("traced run: %d failed, checks %v", res.Failed, res.Checks)
			}
			got := append(slices.Sorted(maps.Keys(res.Metrics)), micro...)
			slices.Sort(got)
			if !slices.Equal(got, perLayer) {
				t.Errorf("traced run + micro-timings emit\n%v\nBENCHMARK.json per_layer declares\n%v", got, perLayer)
			}
			if res.spans == nil {
				t.Error("traced run kept no spans")
			}
		})
	}
}

// BENCHMARK.json stays inside the benchmark contract's limits and agrees
// with the workload table in workloads.go.
func TestBenchmarkJSONContract(t *testing.T) {
	sp := smokeOpts(t).spec
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), workloads.go %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, ms := range sp.metrics() {
		use(ms.Name)
		if !unitRE.MatchString(ms.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", ms.Name, ms.Unit, unitRE)
		}
	}
	var setup *metricSpec
	for i, ms := range sp.EndToEnd {
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", ms.Name, ms.Bound)
		}
		if ms.Name == "setup_s" {
			setup = &sp.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("end_to_end must hold setup_s in s, lower is better; has %+v", setup)
	}
	for _, ms := range sp.PerLayer {
		if ms.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", ms.Name)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
}

func iterate(t *testing.T, workload string, seed int64) report {
	t.Helper()
	rep, err := runIteration(childArgs{workload: workload, seed: seed, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) != 0 || rep.Failed != 0 {
		t.Fatalf("%s seed %d: %d failed, checks %v", workload, seed, rep.Failed, rep.Checks)
	}
	return rep
}

// Simulated results are a function of the seed alone: equal at one seed,
// different at another.
func TestSimulatedResultsRepeatAndFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, other := iterate(t, w.name, 1), iterate(t, w.name, 1), iterate(t, w.name, 2)
		if !sameOutcome(a.outcome, b.outcome) {
			t.Errorf("%s: seed 1 twice gave %v (%s) and %v (%s)", w.name, a.Sim, a.Digest, b.Sim, b.Digest)
		}
		if sameOutcome(a.outcome, other.outcome) {
			t.Errorf("%s: seeds 1 and 2 gave the same results %v (%s)", w.name, a.Sim, a.Digest)
		}
	}
}

// Telemetry observes: with two live sinks the schedule is the one
// sched_steady produces.
func TestObservedScheduleEqualsSteady(t *testing.T) {
	steady, observed := iterate(t, "sched_steady", 3), iterate(t, "sched_observed", 3)
	if !sameOutcome(steady.outcome, observed.outcome) {
		t.Errorf("sched_steady %v (%s) != sched_observed %v (%s)", steady.Sim, steady.Digest, observed.Sim, observed.Digest)
	}
	// measure makes the same comparison against a reference child; a
	// reference that differs must fail the run.
	o := smokeOpts(t)
	o.spawn = func(a childArgs) (report, error) {
		if a.workload == "sched_steady" {
			a.seed++ // a reference that simulated something else
		}
		return runIteration(a)
	}
	w, _ := workloadByName("sched_observed")
	if res := measure(w, o); res.correct() {
		t.Error("measure accepted a sched_observed run whose reference differs")
	}
}

// A child that exits non-zero, times out or prints garbage is counted:
// all its operations are failed, none are dropped.
func TestFailedChildCountsAsFailedOperations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stdout string
		runErr error
	}{
		{"non-zero exit", "", errors.New("exit status 2")},
		{"garbage", "panic: runtime error\ngoroutine 1 [running]", nil},
		{"json but not a report", `{"hello":"world"}`, nil},
		{"empty", "", nil},
	} {
		if _, err := parseReport([]byte(tc.stdout), tc.runErr); err == nil {
			t.Errorf("%s: parseReport accepted it", tc.name)
		}
	}

	o := smokeOpts(t)
	w, _ := workloadByName("sched_burst")
	calls := 0
	o.spawn = func(a childArgs) (report, error) {
		calls++
		return parseReport([]byte("segmentation fault"), nil)
	}
	res := measure(w, o)
	if res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("every child failed, yet attempted %d failed %d", res.Attempted, res.Failed)
	}
	if got := res.Metrics["failed_share"].Median; got != 1 {
		t.Errorf("failed_share = %g, want 1", got)
	}
	if res.correct() {
		t.Error("a run whose children all failed reads correct")
	}
	if calls > 8 {
		t.Errorf("measure kept spawning a failing child: %d calls", calls)
	}

	// One bad child among good ones is counted, and the good ones still
	// yield metrics.
	calls = 0
	o.spawn = func(a childArgs) (report, error) {
		if calls++; calls == 1 {
			return report{}, errors.New("exit status 1")
		}
		return runIteration(a)
	}
	res = measure(w, o)
	ops := w.ops(true)
	if res.Failed != ops || res.Attempted != 2*ops {
		t.Errorf("one failed child of several: attempted %d failed %d, want %d failed", res.Attempted, res.Failed, ops)
	}
	if res.Metrics["wall_s"].N == 0 {
		t.Error("the good children yielded no wall_s sample")
	}
}
