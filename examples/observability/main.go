// Observability walkthrough: the same demand-response squeeze as
// examples/demand-response, this time with the scheduler narrating
// every decision it makes — and the narration rendered three ways.
//
// internal/telemetry taps the scheduler's decision points (admission
// attempts with the exact reason a job stayed queued, backfill
// reservations, governor throttles and boosts with the operating points
// they moved between, plan breakpoints, profiler cap audits) into one
// sim-time-stamped event stream, plus a metrics registry sampled on
// every scheduling edge. A nil recorder costs nothing: every schedule
// in this repo runs the identical code path with telemetry off.
//
// This example wires one recorder with all three exporters:
//
//   - observability_trace.json — Chrome trace-event JSON. Open
//     https://ui.perfetto.dev and drag the file in: per-rank tracks
//     show occupancy and retunes, per-job tracks show wait/run spans,
//     and counter tracks plot queue depth, headroom, and draw vs cap.
//   - observability_events.ndjson — the raw stream, one JSON object
//     per line, for jq/python post-processing.
//   - observability_metrics.csv — the registry sampled in sim time,
//     ready to plot against the budget windows.
//
// plus the text view — `traceq why` for one job, `traceq summary` for
// the fleet — printed below.
//
// Run it:
//
//	go run ./examples/observability
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/capplan"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/traceq"
	"repro/internal/units"
)

func main() {
	// Step 1 — the scenario: a heterogeneous fleet under a midday cap
	// squeeze, sized off an untraced probe run exactly as in
	// examples/demand-response.
	platform, err := machine.ParsePlatform("systemg:32,dori:32")
	if err != nil {
		log.Fatal(err)
	}
	const base = units.Watts(3000)
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 48, Seed: 1})

	probe, err := sched.New(sched.Config{Platform: platform, Cap: base, Policy: sched.FIFO(), Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	probeRes, err := probe.Run(trace)
	if err != nil {
		log.Fatal(err)
	}
	mk := probeRes.Makespan
	plan, err := capplan.Steps(
		capplan.Segment{Start: 0, Cap: base},
		capplan.Segment{Start: mk / 3, Cap: units.Watts(float64(base) * 0.7)},
		capplan.Segment{Start: 2 * mk / 3, Cap: base},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("48 jobs on %s (%d ranks), squeeze plan %s\n\n", platform, platform.TotalRanks(), plan)

	// Step 2 — one recorder, every exporter. Sinks receive each event
	// as it is emitted (the NDJSON and Chrome sinks stream; only the
	// memory sink retains), and the metrics registry streams its CSV
	// rows as the scheduler samples it on each edge.
	traceFile := mustCreate("observability_trace.json")
	eventsFile := mustCreate("observability_events.ndjson")
	metricsFile := mustCreate("observability_metrics.csv")
	mem := telemetry.NewMemorySink()

	rec := telemetry.New(
		telemetry.NewChromeTraceSink(traceFile),
		telemetry.NewNDJSONSink(eventsFile),
		mem,
	)
	rec.Metrics().StreamCSV(metricsFile)

	// Step 3 — the traced run: the backfilling ee-max policy through
	// the squeeze, with the recorder handed in via Config. This is the
	// only line a caller adds to instrument a schedule.
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
	res, err := s.Run(trace)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		log.Fatal(err)
	}
	for _, f := range []*os.File{traceFile, eventsFile, metricsFile} {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if err := rec.Err(); err != nil {
		log.Fatal(err)
	}

	// Step 4 — the text view: the retained stream through the same
	// queries `traceq why` and `traceq summary` run offline. Every job's
	// life is a complete chain — arrive, any blocked attempts ranked by
	// reason, admit with the chosen operating point, governor retunes,
	// finish, and what unblocked it — so "why did job N wait?" is
	// answered by reading, not by re-running under a debugger.
	fmt.Println("one job's decision chain:")
	if err := traceq.Why(os.Stdout, mem.Events(), res.Jobs[len(res.Jobs)/2].ID); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := traceq.Summary(os.Stdout, mem.Events()); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%s finished the squeeze: makespan %v, %d retunes, %d violations\n",
		res.Policy, res.Makespan, res.FreqChanges, res.CapViolations)
	fmt.Println("\nwrote observability_trace.json   — drag into https://ui.perfetto.dev")
	fmt.Println("wrote observability_events.ndjson — jq '.ev' | sort | uniq -c")
	fmt.Println("wrote observability_metrics.csv  — plot queue_depth & headroom_w vs t_s")
	fmt.Println("\n(the same artefacts come from the CLI: schedrun -policy backfill+ee-max")
	fmt.Println(" -capplan ... -trace out.json -events out.ndjson -metrics out.csv -audit summary)")
}

func mustCreate(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	return f
}
