// Observability walkthrough: a demand-response squeeze like
// examples/demand-response's, this time with the scheduler narrating
// every decision it makes — recorded once, then read back offline.
//
// internal/telemetry taps the scheduler's decision points (admission
// attempts with the exact reason a job stayed queued, backfill
// reservations, governor throttles and boosts with the operating points
// they moved between, plan breakpoints, profiler cap audits) into one
// sim-time-stamped event stream, plus a metrics registry sampled on
// every scheduling edge. A nil recorder costs nothing: every schedule
// in this repo runs the identical code path with telemetry off.
//
// The run writes what schedrun -events and -metrics write: the
// decision stream as NDJSON (observability_events.ndjson) and the
// registry sampled in sim time (observability_metrics.csv). Every other
// view is a fold over the decoded stream, the internal/traceq query
// cmd/traceq runs on the same file: observability_trace.json is
// `traceq chrome` — drag it into https://ui.perfetto.dev for per-rank
// occupancy, per-job wait/run spans and counter tracks of queue depth,
// headroom and draw vs cap — and why (the longest-waiting job), critpath,
// windows and summary are printed below.
//
// Run it:
//
//	go run ./examples/observability
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/capplan"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/traceq"
)

func main() {
	// Step 1 — the scenario: a heterogeneous fleet whose 3 kW cap
	// dips to 2.1 kW from t=0.5s to t=1.05s, spelled as the -capplan
	// spec schedrun takes.
	platform, err := machine.ParsePlatform("systemg:32,dori:32")
	if err != nil {
		log.Fatal(err)
	}
	plan, err := capplan.ParsePlan(squeeze)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("48 jobs on %s (%d ranks), squeeze plan %s\n", platform, platform.TotalRanks(), plan)

	// Step 2 — the traced run: the backfilling ee-max policy through
	// the squeeze, with one recorder handed in via Config — the only
	// line a caller adds to instrument a schedule. The NDJSON sink
	// streams each event as it is emitted, and the metrics registry
	// streams its CSV rows as the scheduler samples it on each edge.
	eventsFile := mustCreate("observability_events.ndjson")
	metricsFile := mustCreate("observability_metrics.csv")
	rec := telemetry.New(telemetry.NewNDJSONSink(eventsFile))
	rec.Metrics().StreamCSV(metricsFile)
	s, err := sched.New(sched.Config{
		Platform:  platform,
		Plan:      plan,
		Policy:    sched.Backfill(sched.EEMax()),
		Seed:      1,
		Telemetry: rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(sched.SyntheticTrace(sched.TraceConfig{Jobs: 48, Seed: 1}))
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		log.Fatal(err)
	}
	for _, f := range []*os.File{eventsFile, metricsFile} {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if err := rec.Metrics().Err(); err != nil {
		log.Fatal(err)
	}

	// Step 3 — read the stream back, the parse cmd/traceq applies to a
	// trace file (telemetry.DecodeNDJSON is the format's inverse).
	f, err := os.Open("observability_events.ndjson")
	if err != nil {
		log.Fatal(err)
	}
	evs, err := telemetry.DecodeNDJSON(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	// Step 4 — the folds, starting with the Perfetto timeline.
	traceFile := mustCreate("observability_trace.json")
	if err := traceq.Chrome(traceFile, evs); err != nil {
		log.Fatal(err)
	}
	if err := traceFile.Close(); err != nil {
		log.Fatal(err)
	}
	// The longest-waiting admitted job is the one "why" has the most to
	// explain.
	worst, worstWait := -1, -1.0
	for _, ev := range evs {
		if ev.Kind == telemetry.EvAdmit && float64(ev.Wait) > worstWait {
			worst, worstWait = ev.Job, float64(ev.Wait)
		}
	}
	why := func(w io.Writer, evs []telemetry.Event) error { return traceq.Why(w, evs, worst) }
	for _, q := range []struct {
		name string
		fold func(io.Writer, []telemetry.Event) error
	}{
		{fmt.Sprintf("why %d", worst), why},
		{"critpath", traceq.Critpath},
		{"windows", traceq.Windows},
		{"summary", traceq.Summary},
	} {
		fmt.Printf("\n== traceq %s ==\n", q.name)
		if err := q.fold(os.Stdout, evs); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\n%s finished the squeeze: makespan %v, %d retunes, %d violations\n",
		res.Policy, res.Makespan, res.FreqChanges, res.CapViolations)
	fmt.Println("\nwrote observability_events.ndjson — jq '.ev' | sort | uniq -c")
	fmt.Println("wrote observability_metrics.csv  — plot queue_depth & headroom_w vs t_s")
	fmt.Println("wrote observability_trace.json   — drag into https://ui.perfetto.dev")
	fmt.Println("\nthe same files from the CLI:")
	fmt.Println("  schedrun -jobs 48 -cluster systemg:32,dori:32 -capplan " + squeeze + " -policy backfill+ee-max \\")
	fmt.Println("    -events observability_events.ndjson -metrics observability_metrics.csv")
	fmt.Println("  traceq chrome observability_events.ndjson > observability_trace.json")
}

// squeeze is the cap plan as start:watts windows.
const squeeze = "0:3000,0.5:2100,1.05:3000"

func mustCreate(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	return f
}
