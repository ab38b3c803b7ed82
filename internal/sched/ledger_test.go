package sched

import (
	"math"
	"testing"

	"repro/internal/capplan"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The Result is the run's one ledger — every count is booked where it
// happens — so its second derivation is the event stream: on a fault +
// cap-plan run with a noisy meter (the only source of cap violations),
// recount every booked figure from the retained events and from the
// per-job and per-window records.
func TestLedgerAgreesWithIndependentCounts(t *testing.T) {
	mem := telemetry.NewMemorySink()
	s, err := New(Config{
		Platform: mustPlatform(t, "systemg:16,dori:16"),
		Plan: mustSteps(t,
			capplan.Segment{Start: 0, Cap: 1400},
			capplan.Segment{Start: 0.8, Cap: 1050},
			capplan.Segment{Start: 1.1, Cap: 1400},
			capplan.Segment{Start: 1.5, Cap: 1150},
		),
		Faults: mustFaultPlan(t,
			"fail=3@0.2,repair=3@0.6,mtbf=*:30,mttr=*:0.3,retries=1,ckpt=0.1,restart=0.02"),
		Policy:     Backfill(EEMax()),
		EdgeRetune: true,
		NoisyMeter: true,
		Seed:       1,
		Telemetry:  telemetry.New(mem),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 96, Seed: 1, MaxWidth: 16, MeanInterarrival: 80 * units.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}

	count := map[telemetry.Kind]int{}
	var peak units.Watts
	attemptsKilled := 0
	for _, ev := range mem.Events() {
		count[ev.Kind]++
		switch {
		case ev.Kind == telemetry.EvSample && ev.Power > peak:
			peak = ev.Power
		case ev.Kind == telemetry.EvKill && len(ev.Ranks) > 0:
			// A queued job finalised as lost also emits a kill, with no
			// attempt (and so no rank set) attached.
			attemptsKilled++
		}
	}
	restarts, windowViolations := 0, 0
	for _, j := range res.Jobs {
		restarts += j.Restarts
	}
	for _, w := range res.Windows {
		windowViolations += w.Violations
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"Samples", res.Samples, count[telemetry.EvSample]},
		{"CapViolations", res.CapViolations, count[telemetry.EvViolation]},
		{"Σ Windows.Violations", windowViolations, res.CapViolations},
		{"Failures", res.Failures, count[telemetry.EvFail]},
		{"Repairs", res.Repairs, count[telemetry.EvRepair]},
		{"Checkpoints", res.Checkpoints, count[telemetry.EvCheckpoint]},
		{"Kills", res.Kills, attemptsKilled},
		{"Restarts", res.Restarts, restarts},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, independent count %d", c.name, c.got, c.want)
		}
		if c.want == 0 {
			t.Errorf("%s: the fixture never exercises it", c.name)
		}
	}
	if res.PeakPower != peak || peak == 0 {
		t.Errorf("PeakPower = %v, largest sample %v", res.PeakPower, peak)
	}
}

// The energy identity: with a noise-free meter, the energy the ledger
// attributes (every job's plus the parked pool's) is the integral of the
// measured power profile, whatever kernel events fire after the trace
// drains — a plan breakpoint an hour out, pending MTBF/MTTR draws, an
// embedder's callback (a federation barrier) — since the books close at
// the sampling horizon.
func TestTotalEnergyMatchesMeasuredProfile(t *testing.T) {
	systemg := mustPlatform(t, "systemg:16")
	for _, c := range []struct {
		name  string
		cfg   Config
		after units.Seconds // an At callback this long past the start, or 0
	}{
		{"constant cap", Config{Platform: systemg, Cap: 900, Policy: EEMax()}, 0},
		{"breakpoint after the drain", Config{Platform: systemg, Policy: EEMax(),
			Plan: mustSteps(t, capplan.Segment{Start: 0, Cap: 900}, capplan.Segment{Start: 3600, Cap: 850})}, 0},
		{"mtbf", Config{Platform: systemg, Cap: 900, Policy: Backfill(EEMax()),
			Faults: mustFaultPlan(t, "mtbf=*:3,mttr=*:0.15,retries=8,ckpt=0.1")}, 0},
		{"callback after the drain", Config{Platform: systemg, Cap: 900, Policy: EEMax()}, 100},
	} {
		c.cfg.Seed = 1
		s, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.after > 0 {
			if err := s.At(c.after, func() {}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 16, Seed: 1}))
		if err != nil {
			t.Fatal(err)
		}
		measured := s.prof.Profile().Energy()
		if rel := math.Abs(float64(res.TotalEnergy-measured)) / float64(measured); !(rel <= 1e-9) {
			t.Errorf("%s: TotalEnergy %v (parked %v), measured %v: relative gap %.3g",
				c.name, res.TotalEnergy, res.ParkedEnergy, measured, rel)
		}
	}
}
