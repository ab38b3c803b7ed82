package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// layersChild is the pseudo-workload name under which a child runs the
// outside micro-timings (layers.go) instead of a workload.
const layersChild = "layers"

// childArgs selects what one child process does.
type childArgs struct {
	workload  string
	seed      int64
	traced    bool
	setupOnly bool
	smoke     bool
	// spawned is when the parent started the process, so set-up time
	// includes process start and package initialisation: work moved
	// into an init function must show. Zero means "now".
	spawned time.Time
}

// report is what one iteration prints: host-time measurements by
// end-to-end metric name, the simulated outcome and, when traced, the
// per-layer numbers and spans.
type report struct {
	Workload string             `json:"workload"`
	Host     map[string]float64 `json:"host"`
	outcome
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

const mib = 1 << 20

// runIteration runs one iteration in this process.
func runIteration(a childArgs) (report, error) {
	if a.spawned.IsZero() {
		a.spawned = time.Now() //lint:wallclock set-up timing anchor for in-process runs
	}
	rep := report{Workload: a.workload, Host: map[string]float64{}}
	if a.workload == layersChild {
		rep.Layers = runLayers(a.smoke)
		return rep, nil
	}
	w, ok := workloadByName(a.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", a.workload)
	}
	var tr *tracer
	if a.traced {
		tr = newTracer(fmt.Sprintf("%s/seed%d", a.workload, a.seed))
	}
	root := tr.begin("iteration")
	sp := tr.begin("setup")
	region, err := w.prepare(a.seed, w.size(a.smoke), a.smoke, tr)
	tr.end(sp)
	if err != nil {
		return report{}, fmt.Errorf("%s: set-up: %w", a.workload, err)
	}
	rep.Host["setup_s"] = time.Since(a.spawned).Seconds() //lint:wallclock set-up is a host-time metric
	if a.setupOnly {
		return rep, nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = tr.begin("timed")
	t0 := time.Now() //lint:wallclock wall_s is the host time of the timed region
	out, err := region()
	wall := time.Since(t0).Seconds() //lint:wallclock wall_s is the host time of the timed region
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	tr.end(root)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", a.workload, err)
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return report{}, fmt.Errorf("getrusage: %w", err)
	}
	rep.outcome = out
	rep.Host["wall_s"] = wall
	rep.Host["alloc_mib"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	rep.Host["mallocs_k"] = float64(m1.Mallocs-m0.Mallocs) / 1e3
	rep.Host["peak_rss_mib"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	if tr != nil {
		rep.Layers = tr.layerMetrics(wall)
		rep.Layers["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		rep.Layers["runtime.heap_after_mib"] = float64(m1.HeapAlloc) / mib
		setSelfTimes(tr.spans)
		rep.Spans = tr.spans
	}
	return rep, nil
}

// childMain is the -child entry point: one iteration, one JSON line.
func childMain(a childArgs) int {
	rep, err := runIteration(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// childTimeout bounds one child; the slowest (paper_figures) takes
// under ten seconds on the reference sandbox.
const childTimeout = 150 * time.Second

// childGOMAXPROCS pins what go 1.24 would otherwise read from the host
// CPU count, ignoring the container's quota.
const childGOMAXPROCS = 2

// spawnFunc runs one child to completion and returns its report.
type spawnFunc func(childArgs) (report, error)

// spawnExe returns the spawnFunc that re-executes exe, so every timed
// iteration is a fresh process: what a schedrun, fedrun or figures user
// pays, with a heap and a peak RSS of its own.
func spawnExe(exe string) spawnFunc {
	return func(a childArgs) (report, error) {
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		defer cancel()
		args := []string{"-child", a.workload, "-seed", strconv.FormatInt(a.seed, 10)}
		if a.traced {
			args = append(args, "-traced")
		}
		if a.setupOnly {
			args = append(args, "-setup-only")
		}
		if a.smoke {
			args = append(args, "-smoke")
		}
		args = append(args, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10)) //lint:wallclock the child measures set-up from here
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childGOMAXPROCS))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		return parseReport(out, err)
	}
}

// parseReport decodes a child's standard output. A child that exited
// non-zero, timed out or printed something else is an error, which the
// caller counts as failed operations rather than dropping the run.
func parseReport(stdout []byte, runErr error) (report, error) {
	if runErr != nil {
		return report{}, fmt.Errorf("child failed: %w", runErr)
	}
	var rep report
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return report{}, fmt.Errorf("child output is not a report: %w", err)
	}
	if rep.Workload == "" || rep.Host == nil {
		return report{}, fmt.Errorf("child output is not a report: %.80q", stdout)
	}
	return rep, nil
}
