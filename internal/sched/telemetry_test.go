package sched

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/capplan"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// tracedRun executes one schedule with a memory sink attached and
// returns the result together with the retained event stream.
func tracedRun(t *testing.T, cfg Config, trace []Job) (Result, []telemetry.Event) {
	t.Helper()
	mem := telemetry.NewMemorySink()
	rec := telemetry.New(mem)
	cfg.Telemetry = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return res, mem.Events()
}

// demandResponseConfig builds the acceptance scenario: a heterogeneous
// platform squeezed to 70 % of the base budget over the middle third of
// the flat-cap makespan, scheduled by backfilling ee-max.
func demandResponseConfig(t *testing.T, trace []Job) Config {
	t.Helper()
	platform, err := machine.ParsePlatform("systemg:8,dori:8")
	if err != nil {
		t.Fatal(err)
	}
	const base = units.Watts(900)
	probe, err := New(Config{Platform: platform, Cap: base, Policy: FIFO(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	probeRes, err := probe.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	mk := probeRes.Makespan
	plan := mustSteps(t,
		capplan.Segment{Start: 0, Cap: base},
		capplan.Segment{Start: mk / 3, Cap: units.Watts(float64(base) * 0.7)},
		capplan.Segment{Start: 2 * mk / 3, Cap: base},
	)
	return Config{Platform: platform, Plan: plan, Policy: Backfill(EEMax()), Seed: 1}
}

// Acceptance: every job in a demand-response run must have a complete,
// causally ordered decision chain — arrive, then (for completed jobs)
// exactly one admit followed by its retunes and exactly one finish, or
// (for rejected jobs) exactly one reject — and the whole stream must be
// stamped in nondecreasing sim time.
func TestTelemetryEventChainComplete(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 32, Seed: 7, MaxWidth: 8})
	cfg := demandResponseConfig(t, trace)
	res, events := tracedRun(t, cfg, trace)
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}

	last := units.Seconds(-1)
	for i, ev := range events {
		if ev.T < last {
			t.Fatalf("event %d (%s) at t=%v precedes t=%v", i, ev.Kind, ev.T, last)
		}
		last = ev.T
	}

	type chain struct {
		arrive, admit, reject, finish int
		admitAt, finishAt             units.Seconds
		outOfBand                     int // governor events outside [admit, finish]
	}
	chains := make(map[int]*chain)
	get := func(id int) *chain {
		c := chains[id]
		if c == nil {
			c = &chain{}
			chains[id] = c
		}
		return c
	}
	for _, ev := range events {
		if ev.Job == telemetry.NoJob {
			continue
		}
		c := get(ev.Job)
		switch ev.Kind {
		case telemetry.EvArrive:
			c.arrive++
		case telemetry.EvAdmit:
			c.admit++
			c.admitAt = ev.T
			if ev.Pool == "" || ev.P <= 0 || ev.Freq <= 0 {
				t.Fatalf("admit of job %d lacks an operating point: %+v", ev.Job, ev)
			}
			if len(ev.Ranks) != ev.P {
				t.Fatalf("admit of job %d: %d ranks for width %d", ev.Job, len(ev.Ranks), ev.P)
			}
		case telemetry.EvReject:
			c.reject++
			if ev.Reason == "" {
				t.Fatalf("reject of job %d carries no reason", ev.Job)
			}
		case telemetry.EvFinish:
			c.finish++
			c.finishAt = ev.T
		case telemetry.EvThrottle, telemetry.EvBoost:
			if c.admit == 0 || c.finish > 0 {
				c.outOfBand++
			}
			if ev.FreqFrom == ev.Freq {
				t.Fatalf("retune of job %d moved nowhere: %+v", ev.Job, ev)
			}
		}
	}

	for _, jr := range res.Jobs {
		c := chains[jr.ID]
		if c == nil {
			t.Fatalf("job %d produced no events at all", jr.ID)
		}
		if c.arrive != 1 {
			t.Fatalf("job %d: %d arrive events, want 1", jr.ID, c.arrive)
		}
		switch jr.State {
		case Done:
			if c.admit != 1 || c.finish != 1 || c.reject != 0 {
				t.Fatalf("completed job %d chain admit=%d finish=%d reject=%d", jr.ID, c.admit, c.finish, c.reject)
			}
			if c.finishAt < c.admitAt {
				t.Fatalf("job %d finished at %v before its admission at %v", jr.ID, c.finishAt, c.admitAt)
			}
			if c.outOfBand != 0 {
				t.Fatalf("job %d: %d governor events outside its run", jr.ID, c.outOfBand)
			}
		case Rejected:
			if c.reject != 1 || c.admit != 0 || c.finish != 0 {
				t.Fatalf("rejected job %d chain admit=%d finish=%d reject=%d", jr.ID, c.admit, c.finish, c.reject)
			}
		}
	}

	kinds := make(map[telemetry.Kind]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	for _, want := range []telemetry.Kind{telemetry.EvSample, telemetry.EvPlanEdge, telemetry.EvAttempt} {
		if kinds[want] == 0 {
			t.Fatalf("demand-response stream has no %s events", want)
		}
	}
}

// The instrumented schedule must be the uninstrumented schedule:
// attaching a recorder may observe, never perturb.
func TestTelemetryDoesNotPerturbSchedule(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 11, MaxWidth: 8})
	cfg := demandResponseConfig(t, trace)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	traced, _ := tracedRun(t, cfg, trace)
	compareResults(t, "traced vs bare", bare, traced)
}

// Every blocked admission attempt must classify its obstacle: the
// reason strings are the audit's vocabulary, and an empty one means
// blockReason failed to replay the grid walk.
func TestTelemetryAttemptReasons(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 32, Seed: 7, MaxWidth: 8})
	cfg := demandResponseConfig(t, trace)
	_, events := tracedRun(t, cfg, trace)

	attempts := 0
	for _, ev := range events {
		if ev.Kind != telemetry.EvAttempt {
			continue
		}
		attempts++
		if ev.Reason == "" {
			t.Fatalf("attempt for job %d at t=%v carries no block reason", ev.Job, ev.T)
		}
		if strings.HasPrefix(ev.Reason, "%!") {
			t.Fatalf("malformed block reason: %q", ev.Reason)
		}
	}
	if attempts == 0 {
		t.Fatal("squeeze run produced no blocked attempts")
	}
}

// A memoised block reason is the string fmt would format for the same
// argument, whether the argument repeats, changes, or returns — the
// stream golden pins the watts and perf-slack wordings in situ, this
// pins the memo itself (and the ranks wording the golden scenario never
// reaches: its two pools are never both full).
func TestReasonMemoMatchesSprintf(t *testing.T) {
	const ranksFmt = "ranks: no candidate width fits the %d free ranks"
	var ranks reasonMemo[int]
	for _, n := range []int{0, 0, 3, 3, 0, 17} {
		if got, want := ranks.get(ranksFmt, n), fmt.Sprintf(ranksFmt, n); got != want {
			t.Fatalf("ranks reason for %d = %q, want %q", n, got, want)
		}
	}
	const wattsFmt = "watts: no eligible point fits the %.1f W headroom"
	var watts reasonMemo[float64]
	for _, w := range []float64{0, 0, 12.34, 12.34, 12.36, 0, -0.04} {
		if got, want := watts.get(wattsFmt, w), fmt.Sprintf(wattsFmt, w); got != want {
			t.Fatalf("watts reason for %v = %q, want %q", w, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { ranks.get(ranksFmt, 17) }); allocs != 0 {
		t.Fatalf("a repeated argument allocates %v times, want 0", allocs)
	}
}
