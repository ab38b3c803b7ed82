package sched

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/capplan"
	"repro/internal/machine"
	"repro/internal/units"
)

func mustSteps(t *testing.T, segs ...capplan.Segment) *capplan.Plan {
	t.Helper()
	p, err := capplan.Steps(segs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Config.Cap and Config.Plan are mutually exclusive, an invalid plan is
// rejected, and a plan dipping below the idle floor is rejected like a
// constant cap below it.
func TestPlanConfigValidation(t *testing.T) {
	pl := machine.Homogeneous(testSpec())
	if _, err := New(Config{Platform: pl, Ranks: 2, Cap: 900, Plan: capplan.Constant(900)}); err == nil {
		t.Fatal("Cap together with Plan must be rejected")
	}
	if _, err := New(Config{Platform: pl, Ranks: 2, Plan: &capplan.Plan{}}); err == nil {
		t.Fatal("zero-value plan must be rejected")
	}
	// A bare cap is checked by the plan it becomes; the error still names
	// the cap. NaN compares false with everything, so it must not get as
	// far as an admission.
	for _, bad := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := New(Config{Platform: pl, Ranks: 2, Cap: units.Watts(bad)}); err == nil ||
			!strings.Contains(err.Error(), "power cap") {
			t.Fatalf("Cap %v must be rejected naming the cap, got %v", bad, err)
		}
	}
	// 16 parked SystemG ranks idle well above 100 W: a plan window at
	// 100 W can never be satisfied.
	dip := mustSteps(t,
		capplan.Segment{Start: 0, Cap: 2000},
		capplan.Segment{Start: 1, Cap: 100},
	)
	if _, err := New(Config{Platform: pl, Ranks: 16, Plan: dip}); err == nil ||
		!strings.Contains(err.Error(), "idle floor") {
		t.Fatalf("plan window below the idle floor must be rejected, got %v", err)
	}
}

// Acceptance: a bare Cap and a one-segment Plan are two spellings of one
// budget — the schedule and its JSON dump must be bit-identical, window
// accounting aside, for every policy family.
func TestOneSegmentPlanMatchesConstantCap(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 11, MaxWidth: 8})
	run := func(cfg Config) Result {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameJSON := func(label string, a, b Result) {
		t.Helper()
		ja, erra := json.Marshal(a)
		jb, errb := json.Marshal(b)
		if erra != nil || errb != nil {
			t.Fatalf("%s: marshal: %v / %v", label, erra, errb)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: JSON dumps differ", label)
		}
	}
	for _, pol := range []Policy{FIFO(), EEMax(), FairShare(), Backfill(EEMax()), Backfill(FIFO())} {
		label := "constant plan vs constant cap (" + pol.Name() + ")"
		byCap := Config{Platform: machine.Homogeneous(testSpec()), Ranks: 16, Cap: 900, Policy: pol, Seed: 11}
		byPlan := byCap
		byPlan.Cap, byPlan.Plan = 0, capplan.Constant(900)
		a, b := run(byCap), run(byPlan)
		if a.Plan != "" || a.Windows != nil || a.CapUtilisation != 0 {
			t.Fatalf("%s: a bare cap reports window accounting (plan %q, %d windows)", label, a.Plan, len(a.Windows))
		}
		if b.Plan != "0:900" || len(b.Windows) != 1 {
			t.Fatalf("%s: plan run reports plan %q and %d windows, want 0:900 and 1", label, b.Plan, len(b.Windows))
		}
		// The plan run reports window accounting the constant run does
		// not; everything else must match bit for bit.
		b.Plan, b.Windows, b.CapUtilisation = "", nil, 0
		compareResults(t, label, a, b)
		sameJSON(label, a, b)
	}
}

// planStepTrace builds the squeeze plan for the step regression: the
// cap drops by a third across [lo, hi) of the constant-cap makespan.
func planStepMakespan(t *testing.T, platform machine.Platform, ranks int, cap units.Watts, trace []Job) units.Seconds {
	t.Helper()
	s, err := New(Config{Platform: platform, Ranks: ranks, Cap: cap, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(trace) {
		t.Fatalf("probe run completed %d of %d", res.Completed, len(trace))
	}
	return res.Makespan
}

// Acceptance regression: a downward cap step lands mid-trace under
// every policy family — plain and backfilled, edge retune on and off,
// one-pool and systemg+dori — and the audit must count zero violations
// against the timeline; ee-max completes the trace with lower
// energy/job than fifo under the same plan.
func TestDownwardCapStepZeroViolationsAllPolicyFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("many full traces")
	}
	type fleet struct {
		label    string
		platform machine.Platform
		ranks    int
		cap      units.Watts
	}
	fleets := []fleet{
		{"systemg", machine.Homogeneous(machine.SystemG()), 16, 900},
		{"systemg+dori", mixedPlatform(), 0, 3000},
	}
	for _, fl := range fleets {
		trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 5, MaxWidth: 16})
		mk := planStepMakespan(t, fl.platform, fl.ranks, fl.cap, trace)
		// Squeeze the middle third of the constant-cap makespan to 2/3
		// of the budget; the trace finishes inside the recovered window.
		plan := mustSteps(t,
			capplan.Segment{Start: 0, Cap: fl.cap},
			capplan.Segment{Start: mk / 3, Cap: units.Watts(float64(fl.cap) * 2 / 3)},
			capplan.Segment{Start: 2 * mk / 3, Cap: fl.cap},
		)
		energyPerJob := map[string]units.Joules{}
		for _, pc := range []struct {
			name string
			pol  Policy
		}{
			{"fifo", FIFO()},
			{"ee-max", EEMax()},
			{"fair-share", FairShare()},
			{"backfill+fifo", Backfill(FIFO())},
			{"backfill+ee-max", Backfill(EEMax())},
		} {
			for _, edge := range []bool{false, true} {
				s, err := New(Config{
					Platform: fl.platform, Ranks: fl.ranks,
					Plan: plan, Policy: pc.pol, EdgeRetune: edge, Seed: 5,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(trace)
				if err != nil {
					t.Fatalf("%s/%s edge=%v: %v", fl.label, pc.name, edge, err)
				}
				if res.CapViolations != 0 {
					t.Errorf("%s/%s edge=%v: %d violations in %d samples (peak %v)",
						fl.label, pc.name, edge, res.CapViolations, res.Samples, res.PeakPower)
				}
				if res.Completed != len(trace) {
					t.Errorf("%s/%s edge=%v: completed %d of %d",
						fl.label, pc.name, edge, res.Completed, len(trace))
				}
				// The step actually landed mid-trace: the squeeze window
				// must have been sampled.
				if len(res.Windows) < 2 || res.Windows[1].Samples == 0 {
					t.Errorf("%s/%s edge=%v: squeeze window never sampled: %+v",
						fl.label, pc.name, edge, res.Windows)
				}
				// Per-window violations reconcile with the global audit.
				winViol := 0
				for _, w := range res.Windows {
					winViol += w.Violations
				}
				if winViol != res.CapViolations {
					t.Errorf("%s/%s edge=%v: window violations %d != audit %d",
						fl.label, pc.name, edge, winViol, res.CapViolations)
				}
				if !edge {
					energyPerJob[pc.name] = res.EnergyPerJob
				}
			}
		}
		if ee, fifo := energyPerJob["ee-max"], energyPerJob["fifo"]; !(ee < fifo) {
			t.Errorf("%s: ee-max energy/job %v should undercut fifo %v under the same plan",
				fl.label, ee, fifo)
		}
	}
}

// Waiting beats crawling, plan edition: on an idle cluster a constant
// starved cap admits the best relaxed (degraded) point because waiting
// can never help — but when the timeline carries a strictly higher
// window ahead, the job waits for the rise and starts at a better
// shape instead of locking a crawl in for its whole lifetime.
func TestPlanWaitingBeatsRelaxedCrawl(t *testing.T) {
	spec := testSpec()
	mpMin, err := spec.AtFrequency(spec.MinFrequency())
	if err != nil {
		t.Fatal(err)
	}
	floor := units.Watts(8 * float64(mpMin.PsysIdle))
	low := floor + 40 // room for a serial crawl, not for the full width
	job := Job{ID: 0, Vector: app.EP(), N: 1e7, MaxWidth: 8}

	// Baseline: under the constant starved cap, the relaxed idle pass
	// admits a degraded shape immediately.
	s, err := New(Config{Platform: machine.Homogeneous(spec), Ranks: 8, Cap: low})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := s.Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Jobs[0].State != Done || flat.Jobs[0].P >= 8 {
		t.Fatalf("constant starved cap should admit a degraded shape: %+v", flat.Jobs[0])
	}

	// Same starved window, but a full-budget window opens later: the
	// job must wait for it and start undegraded.
	plan := mustSteps(t,
		capplan.Segment{Start: 0, Cap: low},
		capplan.Segment{Start: 0.5, Cap: 2000},
	)
	s, err = New(Config{Platform: machine.Homogeneous(spec), Ranks: 8, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.State != Done {
		t.Fatalf("job must run in the full window: %+v", j)
	}
	if j.Start < 0.5 {
		t.Fatalf("job started at %v, inside the starved window", j.Start)
	}
	if j.P <= flat.Jobs[0].P {
		t.Fatalf("waiting should buy a better shape: p=%d vs crawl p=%d", j.P, flat.Jobs[0].P)
	}
	if res.CapViolations != 0 {
		t.Fatalf("%d violations", res.CapViolations)
	}
}

// A job no budget window can ever admit is rejected at its arrival
// edge, not parked until the plan's last breakpoint — a short trace
// must not idle the sampler across a long timeline.
func TestPlanInfeasibleEverywhereRejectedImmediately(t *testing.T) {
	spec := testSpec()
	mpMin, err := spec.AtFrequency(spec.MinFrequency())
	if err != nil {
		t.Fatal(err)
	}
	floor := units.Watts(2 * float64(mpMin.PsysIdle))
	// A starved timeline stretching 1000 virtual seconds: every window
	// clears the idle floor but fits no job.
	plan := mustSteps(t,
		capplan.Segment{Start: 0, Cap: floor + 1},
		capplan.Segment{Start: 500, Cap: floor + 2},
		capplan.Segment{Start: 1000, Cap: floor + 1},
	)
	s, err := New(Config{Platform: machine.Homogeneous(spec), Ranks: 2, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{epJob(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].State != Rejected {
		t.Fatalf("job infeasible in every window must be rejected: %+v", res.Jobs[0])
	}
	// Immediate rejection: the simulation must not have sampled its way
	// to the final breakpoint (1000 s at 25 ms would be 40k samples).
	if res.Samples > 100 {
		t.Fatalf("rejection idled the sampler for %d samples", res.Samples)
	}
}

// A cap rise is a scheduling edge: a job too hungry for the opening
// window is not rejected while the timeline still has better windows —
// it waits, and starts the moment the budget rises.
func TestPlanRiseAdmitsWaitingJob(t *testing.T) {
	spec := testSpec()
	mpMin, err := spec.AtFrequency(spec.MinFrequency())
	if err != nil {
		t.Fatal(err)
	}
	floor := units.Watts(4 * float64(mpMin.PsysIdle))
	// Window one barely clears the idle floor — nothing can start.
	// Window two carries real budget.
	plan := mustSteps(t,
		capplan.Segment{Start: 0, Cap: floor + 1},
		capplan.Segment{Start: 0.5, Cap: 2000},
	)
	s, err := New(Config{Platform: machine.Homogeneous(spec), Ranks: 4, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{epJob(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.State != Done {
		t.Fatalf("job should run once the cap rises: %+v", j)
	}
	if j.Start < 0.5 {
		t.Fatalf("job started at %v, inside the starvation window", j.Start)
	}
	if res.CapViolations != 0 {
		t.Fatalf("%d violations", res.CapViolations)
	}
}

// After the final window is in force the timeline is flat forever, so a
// job infeasible there is rejected exactly as under a constant cap —
// never parked forever.
func TestPlanInfeasibleAfterFinalWindowRejected(t *testing.T) {
	spec := testSpec()
	mpMin, err := spec.AtFrequency(spec.MinFrequency())
	if err != nil {
		t.Fatal(err)
	}
	floor := units.Watts(2 * float64(mpMin.PsysIdle))
	plan := mustSteps(t,
		capplan.Segment{Start: 0, Cap: 2000},
		capplan.Segment{Start: 0.25, Cap: floor + 1},
	)
	s, err := New(Config{Platform: machine.Homogeneous(spec), Ranks: 2, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Arrives into the starved final window: nothing ever fits again.
	res, err := s.Run([]Job{{ID: 0, Vector: app.EP(), N: 1e7, MaxWidth: 2, Arrival: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].State != Rejected {
		t.Fatalf("job infeasible in the flat-forever window must be rejected: %+v", res.Jobs[0])
	}
}

// Admission charges the envelope against the minimum cap over the
// job's predicted lifetime: a job that fits the opening window but
// straddles a squeeze it cannot fit must wait (here: until after the
// squeeze), even though CapAt(arrival) would admit it.
func TestMinOverLifetimeAdmission(t *testing.T) {
	spec := testSpec()
	mpMin, err := spec.AtFrequency(spec.MinFrequency())
	if err != nil {
		t.Fatal(err)
	}
	floor := units.Watts(2 * float64(mpMin.PsysIdle))
	// Probe the job's runtime under a generous constant cap.
	probe, err := New(Config{Platform: machine.Homogeneous(spec), Ranks: 2, Cap: 2000})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := probe.Run([]Job{epJob(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	dur := pres.Jobs[0].End - pres.Jobs[0].Start
	// The squeeze opens at half the job's runtime and barely clears the
	// idle floor: any admission at t=0 would straddle it.
	plan := mustSteps(t,
		capplan.Segment{Start: 0, Cap: 2000},
		capplan.Segment{Start: dur / 2, Cap: floor + 1},
		capplan.Segment{Start: dur, Cap: 2000},
	)
	s, err := New(Config{Platform: machine.Homogeneous(spec), Ranks: 2, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{epJob(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.State != Done {
		t.Fatalf("job must eventually run: %+v", j)
	}
	if j.Start < dur {
		t.Fatalf("job started at %v, straddling the squeeze at [%v, %v)", j.Start, dur/2, dur)
	}
	if res.CapViolations != 0 {
		t.Fatalf("%d violations", res.CapViolations)
	}
}

// One seed, one schedule — cap timelines included (breakpoint edges and
// window accounting replay bit for bit).
func TestPlanScheduleDeterministic(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 11, MaxWidth: 8})
	run := func() Result {
		plan := mustSteps(t,
			capplan.Segment{Start: 0, Cap: 900},
			capplan.Segment{Start: 0.4, Cap: 650},
			capplan.Segment{Start: 0.8, Cap: 900},
		)
		s, err := New(Config{
			Platform: machine.Homogeneous(testSpec()), Ranks: 16,
			Plan: plan, Policy: Backfill(EEMax()), Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Windows) == 0 {
		t.Fatal("plan run must report windows")
	}
	compareResults(t, "plan determinism", a, b)
}

// The per-window ledger reconciles: window energies sum to the
// profiler's integrated trace (which TotalEnergy tracks), each window's
// utilisation is its mean power over its cap, and the overall cap
// utilisation is the time-weighted ratio.
func TestPlanWindowAccounting(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 3, MaxWidth: 8})
	plan := mustSteps(t,
		capplan.Segment{Start: 0, Cap: 900},
		capplan.Segment{Start: 0.3, Cap: 700},
		capplan.Segment{Start: 0.9, Cap: 900},
	)
	s, err := New(Config{
		Platform: machine.Homogeneous(testSpec()), Ranks: 16,
		Plan: plan, Policy: EEMax(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != plan.String() || res.Cap != 900 {
		t.Fatalf("plan labelling: %q cap %v", res.Plan, res.Cap)
	}
	var winE units.Joules
	samples := 0
	for i, w := range res.Windows {
		winE += w.Energy
		samples += w.Samples
		if w.End <= w.Start {
			t.Fatalf("window %d is empty: %+v", i, w)
		}
		if w.Utilisation < 0 || w.Utilisation > 1+1e-9 {
			t.Fatalf("window %d utilisation %v outside [0,1]", i, w.Utilisation)
		}
	}
	if samples != res.Samples {
		t.Fatalf("window samples %d != audit samples %d", samples, res.Samples)
	}
	if diff := math.Abs(float64(winE) - float64(res.TotalEnergy)); diff > 0.02*float64(res.TotalEnergy) {
		t.Fatalf("window energy %v vs total %v differs by %.2f%%",
			winE, res.TotalEnergy, diff/float64(res.TotalEnergy)*100)
	}
	if res.CapUtilisation <= 0 || res.CapUtilisation > 1+1e-9 {
		t.Fatalf("cap utilisation %v outside (0,1]", res.CapUtilisation)
	}
	if !strings.Contains(res.WindowTable(), "700") {
		t.Fatalf("window table misses the squeeze cap:\n%s", res.WindowTable())
	}
}

// Every 4th job of a synthetic trace carries a 30 s deadline; the rest
// carry none.
func TestTraceDeadlineShape(t *testing.T) {
	for i, j := range SyntheticTrace(TraceConfig{Jobs: 16, Seed: 9}) {
		want := units.Seconds(0)
		if i%4 == 3 {
			want = 30
		}
		if j.Deadline != want {
			t.Fatalf("job %d deadline %v, want %v", i, j.Deadline, want)
		}
	}
}
