package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	count := metricSpec{Name: "cap_violations", Unit: "count", Better: "lower", Bound: 0}
	rate := metricSpec{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(v float64) summary { return summarize([]float64{v * 0.99, v, v, v, v * 1.01}) }
	for _, tc := range []struct {
		name      string
		ms        metricSpec
		base, new summary
		want      string
	}{
		{"equal", wall, tight(2), tight(2), same},
		{"inside the bound", wall, tight(2), tight(2.15), same},
		{"beyond the bound", wall, tight(2), tight(2.3), worse},
		{"clearly faster", wall, tight(2), tight(1.5), better},
		{"higher is better: dropped", rate, tight(100), tight(80), worse},
		{"higher is better: rose", rate, tight(100), tight(130), better},
		{
			"spread wider than the bound, runs interleaved", wall,
			summarize([]float64{1.6, 1.9, 2.0, 2.1, 2.4}), summarize([]float64{1.7, 2.0, 2.2, 2.3, 2.6}), unresolved,
		},
		{
			"spread wider than the bound, every new run faster", wall,
			summarize([]float64{1.6, 1.9, 2.0, 2.1, 2.4}), summarize([]float64{1.0, 1.1, 1.3, 1.4, 1.5}), better,
		},
		{
			"spread wider than the bound, every new run slower", wall,
			summarize([]float64{1.6, 1.9, 2.0, 2.1, 2.4}), summarize([]float64{2.5, 2.8, 3.0, 3.1, 3.5}), worse,
		},
		{"set-up doubled but under the 50 ms floor", setup, tight(0.004), tight(0.009), same},
		{"set-up crossed the floor", setup, tight(0.040), tight(0.080), worse},
		{"set-up above the floor, inside the bound", setup, tight(0.100), tight(0.120), same},
		{"zero-bound count unchanged", count, tight(0), tight(0), same},
		{"zero-bound count grew from zero", count, tight(0), summarize([]float64{3}), worse},
		{"zero-bound count grew by one in a thousand", count, summarize([]float64{1000}), summarize([]float64{1001}), worse},
		{"zero-bound count fell", count, summarize([]float64{5}), summarize([]float64{4}), better},
	} {
		if got, delta := compare(tc.ms, tc.base, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s (change %+.3f), want %s", tc.name, got, delta, tc.want)
		}
	}
}

// Hand-written result files: what a full run writes, cut down to two
// metrics of one workload.
const (
	baseFile = `{"mode":"end_to_end","seed":1,"seconds":15,"gomaxprocs":2,"workloads":[
	 {"workload":"sched_burst","attempted":1024,"failed":0,"metrics":{
	  "wall_s":{"median":1.00,"q1":0.99,"q3":1.01,"n":3,"samples":[0.99,1.00,1.01]},
	  "setup_s":{"median":0.003,"q1":0.003,"q3":0.003,"n":3,"samples":[0.003,0.003,0.003]},
	  "sim.events":{"median":5000,"q1":5000,"q3":5000,"n":1,"samples":[5000]}}}]}`
	slowerFile = `{"mode":"end_to_end","seed":1,"seconds":15,"gomaxprocs":2,"workloads":[
	 {"workload":"sched_burst","attempted":1024,"failed":0,"metrics":{
	  "wall_s":{"median":1.30,"q1":1.29,"q3":1.31,"n":3,"samples":[1.29,1.30,1.31]},
	  "setup_s":{"median":0.006,"q1":0.006,"q3":0.006,"n":3,"samples":[0.006,0.006,0.006]},
	  "sim.events":{"median":5100,"q1":5100,"q3":5100,"n":1,"samples":[5100]}}}]}`
)

func TestCheckFilesExitCodes(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slower := write("base.json", baseFile), write("slower.json", slowerFile)
	garbage := write("garbage.json", "not json")

	var out strings.Builder
	if code := checkFiles(&out, sp, base, base); code != 0 {
		t.Errorf("a file against itself: exit %d, want 0\n%s", code, out.String())
	}
	if strings.Contains(out.String(), worse) || strings.Contains(out.String(), unresolved) {
		t.Errorf("a file against itself must be all same:\n%s", out.String())
	}

	out.Reset()
	if code := checkFiles(&out, sp, base, slower); code != 1 {
		t.Errorf("30 %% slower: exit %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{
		"sched_burst     wall_s", "+30.00%  worse", // the regression, as a share of the base median
		"setup_s", "same", // doubled, but under the absolute floor
		"sim.events", "+2.00%  changed", // a per-layer count has no bound: reported, never a failure
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := checkFiles(&out, sp, slower, base); code != 0 {
		t.Errorf("30 %% faster: exit %d, want 0\n%s", code, out.String())
	}
	if code := checkFiles(&out, sp, base, garbage); code != 2 {
		t.Errorf("unreadable input: exit %d, want 2", code)
	}
	if code := checkFiles(&out, sp, filepath.Join(dir, "missing.json"), base); code != 2 {
		t.Errorf("missing input: exit %d, want 2", code)
	}
	if code := run([]string{"-spec", filepath.Join("..", "BENCHMARK.json"), "-check", base}); code != 2 {
		t.Errorf("-check with one file: exit %d, want 2", code)
	}
}
