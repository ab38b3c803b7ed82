// Command bench is the repository's benchmark: six workloads over the
// scheduler, the federation and the paper's figures, measured end to end
// with tracing off and layer by layer in a separate traced run. It only
// calls public functions and attaches hooks that are already public
// configuration (sched.Config.Obs/Telemetry, fed.Config.SiteObs/
// SiteTelemetry); nothing inside the program knows it is being measured.
// README.md has the workloads, the metric glossary and the predictions;
// BENCHMARK.json declares every metric.
//
// Usage (from the repository root):
//
//	go run ./bench                      every workload, end-to-end metrics
//	go run ./bench -traced              every workload, per-layer metrics from a traced run
//	go run ./bench -layers              the outside micro-timings of each layer
//	go run ./bench -workloads a,b       a subset; -seed N and -seconds S as wanted
//	go run ./bench -check A.json B.json compare two result files against the bounds
//
// The benchmark driver's form measures one workload and prints one JSON
// object as the last line of standard output:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "driver form: measure this one workload and print a JSON result line")
		trace        = fs.Int("trace", 0, "driver form: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		only         = fs.String("workloads", "", "comma-separated subset of workloads (default all)")
		seed         = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = fs.Float64("seconds", 0, "how long one workload measures (default BENCHMARK.json run_seconds)")
		traced       = fs.Bool("traced", false, "run the traced run and print the per-layer metrics")
		layers       = fs.Bool("layers", false, "run only the outside micro-timings of each layer")
		check        = fs.Bool("check", false, "compare two result files: -check A.json B.json")
		specPath     = fs.String("spec", "BENCHMARK.json", "path to BENCHMARK.json")
		outDir       = fs.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
		child        = fs.String("child", "", "internal: run one iteration of this workload in this process")
		setupOnly    = fs.Bool("setup-only", false, "internal: child stops after set-up")
		smoke        = fs.Bool("smoke", false, "internal: test-sized workloads")
		spawned      = fs.Int64("spawned", 0, "internal: parent's clock at spawn, Unix nanoseconds")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *child != "" {
		a := childArgs{workload: *child, seed: *seed, traced: *traced, setupOnly: *setupOnly, smoke: *smoke}
		if *spawned != 0 {
			a.spawned = time.Unix(0, *spawned)
		}
		return childMain(a)
	}

	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -check A.json B.json")
			return 2
		}
		return checkFiles(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	o := runOpts{spec: sp, seed: *seed, seconds: *seconds, smoke: *smoke, spawn: spawnExe(exe)}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}

	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		o.traced, o.micro = *trace == 1, *trace == 1
		return driverRun(w, o, *outDir)
	}

	file := resultsFile{Seed: *seed, Seconds: o.seconds, GOMAXPROCS: childGOMAXPROCS}
	out := "results.json"
	if *layers {
		file.Mode, out = "layers", "layers.json"
		rep, err := o.spawn(childArgs{workload: layersChild})
		res := result{Workload: layersChild, Metrics: map[string]summary{}}
		if err != nil {
			res.failf("%v", err)
		}
		for name, v := range rep.Layers {
			res.Metrics[name] = summarize([]float64{v})
		}
		file.Workloads = []result{res}
	} else {
		file.Mode = "end_to_end"
		if o.traced = *traced; o.traced {
			// A file of its own, so a traced run does not overwrite the
			// end-to-end numbers it is read beside.
			file.Mode, out = "traced", "traced.json"
		}
		names := strings.Split(*only, ",")
		for _, w := range workloads {
			if *only != "" && !slices.Contains(names, w.name) {
				continue
			}
			fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.name)
			res := measure(w, o)
			if !o.traced {
				seedMatters(&res, w, o)
			}
			if err := writeTrace(*outDir, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			file.Workloads = append(file.Workloads, res)
		}
		if len(file.Workloads) == 0 {
			fmt.Fprintf(os.Stderr, "bench: -workloads %q selects nothing\n", *only)
			return 2
		}
	}
	printResults(os.Stdout, sp, file)
	if err := writeJSON(filepath.Join(*outDir, out), file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, res := range file.Workloads {
		if !res.correct() || res.Failed > 0 {
			return 1
		}
	}
	return 0
}

// seedMatters checks that the inputs really come from the seed: one
// more iteration at the next seed must simulate something else.
func seedMatters(res *result, w workload, o runOpts) {
	rep, err := o.spawn(childArgs{workload: w.name, seed: o.seed + 1, smoke: o.smoke})
	switch {
	case err != nil:
		res.failf("seed %d child: %v", o.seed+1, err)
	case res.first != nil && rep.Digest == res.first.Digest:
		res.failf("seeds %d and %d simulate the same thing (digest %s)", o.seed, o.seed+1, rep.Digest)
	}
}

// resultsFile is what a full run writes and -check reads.
type resultsFile struct {
	Mode       string   `json:"mode"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workloads  []result `json:"workloads"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTrace writes the traced run's spans, kept in memory until now.
func writeTrace(dir string, res result) error {
	if res.spans == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, "trace_"+res.Workload+".json"), res.spans)
}

// driverLine is the benchmark driver's result object.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun measures one workload and prints the driver's result line:
// the end-to-end metrics untraced, the per-layer metrics traced.
func driverRun(w workload, o runOpts, outDir string) int {
	res := measure(w, o)
	for _, c := range res.Checks {
		fmt.Fprintln(os.Stderr, "bench: check failed:", c)
	}
	if err := writeTrace(outDir, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	declared := o.spec.EndToEnd
	if o.traced {
		declared = o.spec.PerLayer
	}
	line := driverLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, ms := range declared {
		s, ok := res.Metrics[ms.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %s: no value for declared metric %s\n", w.name, ms.Name)
			return 1
		}
		line.Metrics[ms.Name] = driverMetric{Value: s.Median, Unit: ms.Unit}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// printResults prints every metric of every workload by name, with its
// unit, median, quartiles and sample count.
func printResults(w *os.File, sp spec, file resultsFile) {
	units := map[string]string{}
	order := map[string]int{}
	for i, ms := range sp.metrics() {
		units[ms.Name], order[ms.Name] = ms.Unit, i
	}
	fmt.Fprintf(w, "mode %s, seed %d, %.0f s per workload, children at GOMAXPROCS=%d\n", file.Mode, file.Seed, file.Seconds, file.GOMAXPROCS)
	for _, res := range file.Workloads {
		fmt.Fprintf(w, "\n== %s: %d operations attempted, %d failed ==\n", res.Workload, res.Attempted, res.Failed)
		fmt.Fprintf(w, "%-34s %-8s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
		names := slices.SortedFunc(maps.Keys(res.Metrics), func(a, b string) int { return order[a] - order[b] })
		for _, name := range names {
			s := res.Metrics[name]
			fmt.Fprintf(w, "%-34s %-8s %14.6g %14.6g %14.6g %3d\n", name, units[name], s.Median, s.Q1, s.Q3, s.N)
		}
		if wl, ok := workloadByName(res.Workload); ok && wl.jobs > 0 {
			if s, ok := res.Metrics["wall_s"]; ok {
				fmt.Fprintf(w, "wall per job: %.1f us over %d jobs\n", 1e6*s.Median/float64(wl.jobs), wl.jobs)
			}
		}
		if res.Workload == "paper_figures" && res.first != nil {
			sim := res.first.Sim
			fmt.Fprintf(w, "fig4 average error by kernel: EP %.2f %%, FT %.2f %%, CG %.2f %% (the paper, on SystemG hardware: EP 6.64 %%, FT 4.99 %%, CG 8.31 %%)\n",
				sim[fig4KernelKey("EP")], sim[fig4KernelKey("FT")], sim[fig4KernelKey("CG")])
			fmt.Fprintln(w, "fig3/fig4 errors validate the model against this repository's own simulator, not against hardware")
		}
		for _, c := range res.Checks {
			fmt.Fprintln(w, "CHECK FAILED:", c)
		}
	}
}
