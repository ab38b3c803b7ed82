package sched

import (
	"math"
	"testing"

	"repro/internal/capplan"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The Result is the run's one ledger — every count is booked where it
// happens — so its second derivation is the event stream: on a fault +
// cap-plan run with a noisy meter (the only source of cap violations),
// recount every booked figure from the retained events, from the
// per-job records, and from the power profile the sample events carry.
func TestLedgerAgreesWithIndependentCounts(t *testing.T) {
	// The 44th tick of the 25 ms sampling grid, summed as the kernel
	// sums it: a breakpoint exactly on a sample time. The one at
	// 0.8125 s sits mid-window, so that sampling window straddles it.
	var onGrid units.Seconds
	for range 44 {
		onGrid += 25 * units.Millisecond
	}
	mem := telemetry.NewMemorySink()
	s, err := New(Config{
		Platform: mustPlatform(t, "systemg:16,dori:16"),
		Plan: mustSteps(t,
			capplan.Segment{Start: 0, Cap: 1400},
			capplan.Segment{Start: 0.8125, Cap: 1050},
			capplan.Segment{Start: onGrid, Cap: 1400},
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
	jobs := SyntheticTrace(TraceConfig{Jobs: 96, Seed: 1, MaxWidth: 16, MeanInterarrival: 80 * units.Millisecond})
	// One job with a deadline is wider than either pool: rejected at
	// arrival, it must still count as a deadline miss.
	wide := jobs[3]
	wide.ID, wide.MinWidth, wide.MaxWidth = len(jobs), 32, 32
	res, err := s.Run(append(jobs, wide))
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
	restarts := 0
	var done, rejected, lost, backfilled, missed int
	for _, j := range res.Jobs {
		restarts += j.Restarts
		switch j.State {
		case Done:
			done++
			if j.Backfilled {
				backfilled++
			}
			if j.Deadline > 0 && !j.DeadlineMet {
				missed++
			}
		case Rejected:
			rejected++
			if j.Deadline > 0 {
				missed++
			}
		case Lost:
			lost++
			if j.Deadline > 0 {
				missed++
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"Samples", res.Samples, count[telemetry.EvSample]},
		{"CapViolations", res.CapViolations, count[telemetry.EvViolation]},
		{"Failures", res.Failures, count[telemetry.EvFail]},
		{"Repairs", res.Repairs, count[telemetry.EvRepair]},
		{"Checkpoints", res.Checkpoints, count[telemetry.EvCheckpoint]},
		{"Kills", res.Kills, attemptsKilled},
		{"Restarts", res.Restarts, restarts},
		{"Completed", res.Completed, done},
		{"Completed vs stream", res.Completed, count[telemetry.EvFinish]},
		{"Rejected", res.Rejected, rejected},
		{"Rejected vs stream", res.Rejected, count[telemetry.EvReject]},
		{"JobsLost", res.JobsLost, lost},
		{"BackfilledJobs", res.BackfilledJobs, backfilled},
		{"DeadlineMisses", res.DeadlineMisses, missed},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, independent count %d", c.name, c.got, c.want)
		}
		if c.want == 0 {
			t.Errorf("%s: the fixture never exercises it", c.name)
		}
	}

	// The window ledger against the profile it audited.
	samples := streamProfile(mem)
	if !sampledAt(samples, onGrid) {
		t.Fatalf("no sample at %v: the fixture lost its breakpoint sample", onGrid)
	}
	if len(res.Windows) != 4 {
		t.Fatalf("%d windows, want 4", len(res.Windows))
	}
	for i, o := range windowOracle(samples, res.Windows) {
		w := res.Windows[i]
		if w.Samples != o.Samples || w.Violations != o.Violations || w.Energy != o.Energy {
			t.Errorf("window %d [%v, %v]: samples %d, violations %d, energy %v; the profile says %d, %d, %v",
				i, w.Start, w.End, w.Samples, w.Violations, w.Energy, o.Samples, o.Violations, o.Energy)
		}
		if o.Samples == 0 || o.Energy == 0 {
			t.Errorf("window %d: the fixture never samples it", i)
		}
	}
	// The windows partition the sampled span, and CapUtilisation's
	// numerator is the whole span's integral.
	horizon := samples[len(samples)-1].T
	var capIntegral float64
	var sum units.Joules
	for _, w := range res.Windows {
		capIntegral += float64(w.Cap) * float64(w.End-w.Start)
		sum += w.Energy
	}
	if whole := profileIntegral(samples, 0, horizon); math.Abs(float64(sum-whole)) > 1e-9*float64(whole) {
		t.Errorf("window energies sum to %v, the whole span integrates to %v", sum, whole)
	}
	if want := float64(profileIntegral(samples, 0, horizon)) / capIntegral; res.CapUtilisation != want {
		t.Errorf("CapUtilisation = %v, profile integral over the cap integral %v", res.CapUtilisation, want)
	}
	if res.PeakPower != peak || peak == 0 {
		t.Errorf("PeakPower = %v, largest sample %v", res.PeakPower, peak)
	}
}

// streamProfile rebuilds a run's power profile from its own event
// stream: every sample event carries the sample's time and total draw.
func streamProfile(mem *telemetry.MemorySink) []power.Sample {
	var samples []power.Sample
	for _, ev := range mem.Events() {
		if ev.Kind == telemetry.EvSample {
			samples = append(samples, power.Sample{T: ev.T, Total: ev.Power})
		}
	}
	return samples
}

// windowOracle re-derives the window ledger from the retained profile
// with the rules the audit books by: a sample belongs to the window its
// time falls in (a breakpoint sample to the window it opens, and the
// last window runs to the horizon), it is a violation when it exceeds
// that window's cap by more than capEpsilon, and a window's energy is
// the profile's integral over its span.
func windowOracle(samples []power.Sample, ws []WindowStat) []WindowStat {
	out := make([]WindowStat, len(ws))
	for _, sm := range samples {
		for i, w := range ws {
			if sm.T >= w.Start && (sm.T < w.End || i == len(ws)-1) {
				out[i].Samples++
				if float64(sm.Total) > float64(w.Cap)*(1+capEpsilon) {
					out[i].Violations++
				}
				break
			}
		}
	}
	for i, w := range ws {
		out[i].Energy = profileIntegral(samples, w.Start, w.End)
	}
	return out
}

// profileIntegral integrates a power profile over [t0, t1]: each
// sampling window contributes its power over its overlap with the span,
// so windows straddling an endpoint count pro rata.
func profileIntegral(samples []power.Sample, t0, t1 units.Seconds) units.Joules {
	var e units.Joules
	prev := units.Seconds(0)
	for _, sm := range samples {
		lo, hi := prev, sm.T
		prev = sm.T
		if hi <= t0 || lo >= t1 {
			continue
		}
		e += units.Energy(sm.Total, min(hi, t1)-max(lo, t0))
	}
	return e
}

func sampledAt(samples []power.Sample, t units.Seconds) bool {
	for _, sm := range samples {
		if sm.T == t {
			return true
		}
	}
	return false
}

// The energy identity: with a noise-free meter, the energy the ledger
// attributes (every job's plus the parked pool's) is the integral of the
// measured power profile, whatever kernel events fire after the trace
// drains — a plan breakpoint an hour out, pending MTBF/MTTR draws — and
// wherever an embedder pauses the run (a federation epoch's end), since
// the books close at the sampling horizon.
func TestTotalEnergyMatchesMeasuredProfile(t *testing.T) {
	systemg := mustPlatform(t, "systemg:16")
	for _, c := range []struct {
		name  string
		cfg   Config
		pause units.Seconds // an Advance this long past the start, or 0
	}{
		{"constant cap", Config{Platform: systemg, Cap: 900, Policy: EEMax()}, 0},
		{"breakpoint after the drain", Config{Platform: systemg, Policy: EEMax(),
			Plan: mustSteps(t, capplan.Segment{Start: 0, Cap: 900}, capplan.Segment{Start: 3600, Cap: 850})}, 0},
		{"mtbf", Config{Platform: systemg, Cap: 900, Policy: Backfill(EEMax()),
			Faults: mustFaultPlan(t, "mtbf=*:3,mttr=*:0.15,retries=8,ckpt=0.1")}, 0},
		{"pause after the drain", Config{Platform: systemg, Cap: 900, Policy: EEMax()}, 100},
	} {
		c.cfg.Seed = 1
		mem := telemetry.NewMemorySink()
		c.cfg.Telemetry = telemetry.New(mem)
		s, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Arm(SyntheticTrace(TraceConfig{Jobs: 16, Seed: 1})); err != nil {
			t.Fatal(err)
		}
		for _, at := range []units.Seconds{c.pause, units.Seconds(math.Inf(1))} {
			if err := s.Advance(at); err != nil {
				t.Fatal(err)
			}
		}
		res := s.Result()
		if c.pause > 0 && res.Makespan >= c.pause {
			t.Fatalf("%s: makespan %v; the fixture needs the pause after the drain", c.name, res.Makespan)
		}
		if c.cfg.Plan != nil && len(res.Windows) != 1 {
			t.Errorf("%s: %d windows, want only the one the run reached", c.name, len(res.Windows))
		}
		measured := power.Profile{Samples: streamProfile(mem)}.Energy()
		if rel := math.Abs(float64(res.TotalEnergy-measured)) / float64(measured); !(rel <= 1e-9) {
			t.Errorf("%s: TotalEnergy %v (parked %v), measured %v: relative gap %.3g",
				c.name, res.TotalEnergy, res.ParkedEnergy, measured, rel)
		}
	}
}
