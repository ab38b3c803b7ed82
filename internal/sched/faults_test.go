package sched

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/capplan"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func mustFaultPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	return p
}

// faultDump extends goldenDump with the fault accounting, at full float
// precision — byte equality of two dumps is numerical equality of two
// fault-injected schedules, kills and checkpoints included.
func faultDump(res Result) string {
	var b strings.Builder
	b.WriteString(goldenDump(res))
	for _, j := range res.Jobs {
		if j.Restarts == 0 && j.Checkpoints == 0 && j.LostWork == 0 && j.WastedEnergy == 0 {
			continue
		}
		fmt.Fprintf(&b, "fault job=%d restarts=%d ckpts=%d lostwork=%.17g wasted=%.17g\n",
			j.ID, j.Restarts, j.Checkpoints, float64(j.LostWork), float64(j.WastedEnergy))
	}
	fmt.Fprintf(&b, "fails=%d repairs=%d kills=%d restarts=%d lost=%d ckpts=%d lostwork=%.17g wasted=%.17g avail=%.17g\n",
		res.Failures, res.Repairs, res.Kills, res.Restarts, res.JobsLost, res.Checkpoints,
		float64(res.LostWork), float64(res.WastedEnergy), res.Availability)
	return b.String()
}

// A fault plan with nothing in it must be behaviourally invisible: the
// schedule under an empty plan is byte-identical to the schedule with
// fault injection disabled outright. This pins the no-op cost of the
// fault hooks independently of the golden file.
func TestEmptyFaultPlanMatchesNil(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 32, Seed: 1})
	for _, pol := range []Policy{FIFO(), EEMax(), Backfill(EEMax())} {
		base := Config{
			Platform: machine.Homogeneous(machine.SystemG()),
			Ranks:    32,
			Cap:      1500,
			Policy:   pol,
			Seed:     1,
		}
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
		bare := run(base)
		withEmpty := base
		withEmpty.Faults = &faults.Plan{MaxRetries: 3}
		empty := run(withEmpty)
		if g, w := faultDump(empty), faultDump(bare); g != w {
			t.Fatalf("%s: empty fault plan perturbed the schedule:\n got %q\nwant %q", pol.Name(), g, w)
		}
		if empty.Availability != 1 {
			t.Fatalf("%s: availability %v under an empty plan, want 1", pol.Name(), empty.Availability)
		}
	}
}

// Chaos matrix: fault plans spanning scripted kills and stochastic
// MTBF/MTTR processes, one of them under a mid-run cap clamp, crossed
// with the policy families and both platform shapes. Every combination
// must finish with zero cap violations, every job in a terminal state,
// and a bit-identical schedule on replay — determinism is per (seed,
// plan), not best-effort.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("36 fault-injected schedules")
	}
	trace := SyntheticTrace(TraceConfig{Jobs: 32, Seed: 1})
	plans := []struct {
		label, spec string
		squeeze     bool // clamp the cap to 1300 W over [0.2, 0.6) s
	}{
		{"scripted", "fail=1@0.1,fail=5@0.25,repair=1@0.5,repair=5@0.8,fail=2@0.9,repair=2@1.2,retries=3,ckpt=0.1,restart=0.02", false},
		{"mtbf", "mtbf=*:1.5,mttr=*:0.2,retries=4,ckpt=0.15,restart=0.05", false},
		{"squeeze", "fail=0@0.3,repair=0@0.7,retries=2,ckpt=0.1", true},
	}
	platforms := []struct {
		label    string
		platform machine.Platform
		ranks    int
		cap      units.Watts
	}{
		{"systemg", machine.Homogeneous(machine.SystemG()), 32, 1500},
		{"systemg+dori", mustPlatform(t, "systemg:16,dori:16"), 0, 1800},
	}
	policies := []Policy{
		FIFO(), EEMax(), FairShare(),
		Backfill(FIFO()), Backfill(EEMax()), Backfill(FairShare()),
	}
	for _, pl := range plans {
		plan := mustFaultPlan(t, pl.spec)
		for _, pf := range platforms {
			for _, pol := range policies {
				name := fmt.Sprintf("%s/%s/%s", pl.label, pf.label, pol.Name())
				cfg := Config{
					Platform: pf.platform,
					Ranks:    pf.ranks,
					Cap:      pf.cap,
					Policy:   pol,
					Seed:     1,
					Faults:   plan,
				}
				if pl.squeeze {
					cfg.Cap, cfg.Plan = 0, mustSteps(t,
						capplan.Segment{Start: 0, Cap: pf.cap},
						capplan.Segment{Start: 0.2, Cap: 1300},
						capplan.Segment{Start: 0.6, Cap: pf.cap},
					)
				}
				run := func() Result {
					s, err := New(cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res, err := s.Run(trace)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return res
				}
				res := run()
				if res.CapViolations != 0 {
					t.Errorf("%s: %d cap violations under faults", name, res.CapViolations)
				}
				for _, j := range res.Jobs {
					if j.State != Done && j.State != Rejected && j.State != Lost {
						t.Errorf("%s: job %d stranded in state %s", name, j.ID, j.State)
					}
				}
				if got := res.Completed + res.Rejected + res.JobsLost; got != len(trace) {
					t.Errorf("%s: %d terminal jobs, want %d (done=%d rej=%d lost=%d)",
						name, got, len(trace), res.Completed, res.Rejected, res.JobsLost)
				}
				if res.Availability <= 0 || res.Availability > 1 {
					t.Errorf("%s: availability %v out of (0, 1]", name, res.Availability)
				}
				if res.Kills == 0 && (res.LostWork != 0 || res.WastedEnergy != 0) {
					t.Errorf("%s: lost work %v / wasted energy %v without any kill",
						name, res.LostWork, res.WastedEnergy)
				}
				var restarts int
				for _, j := range res.Jobs {
					restarts += j.Restarts
				}
				if restarts < res.Restarts {
					t.Errorf("%s: job restarts sum %d below %d dispatched restarts", name, restarts, res.Restarts)
				}
				if pl.label == "mtbf" && res.Failures == 0 {
					t.Errorf("%s: MTBF process injected no failures", name)
				}
				if got, want := faultDump(run()), faultDump(res); got != want {
					t.Errorf("%s: replay diverged:\n got %q\nwant %q", name, got, want)
				}
			}
		}
	}
}

func mustPlatform(t *testing.T, spec string) machine.Platform {
	t.Helper()
	p, err := machine.ParsePlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkpointScenario builds a deterministic single-kill scenario: a
// fault-free probe run finds job 0's execution interval, then a scripted
// failure of rank 0 lands mid-run (rank sets are free-list prefixes, so
// job 0 always holds rank 0) with a repair shortly after.
func checkpointScenario(t *testing.T, retries int, repair bool) (Config, []Job) {
	t.Helper()
	trace := SyntheticTrace(TraceConfig{Jobs: 3, Seed: 5, MaxWidth: 8})
	// ee-max is moldable: when a failure shrinks the cluster below a
	// job's preferred width, it reshapes instead of rejecting (fifo's
	// rigid full-width jobs could never run again on 7 ranks).
	cfg := Config{
		Platform: machine.Homogeneous(machine.SystemG()),
		Ranks:    8,
		Cap:      450,
		Policy:   EEMax(),
		Seed:     1,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	j0 := probe.Jobs[0]
	if j0.State != Done {
		t.Fatalf("probe job 0 state %s, want done", j0.State)
	}
	dur := j0.End - j0.Start
	if dur <= 0 {
		t.Fatalf("probe job 0 has empty execution interval [%v, %v]", j0.Start, j0.End)
	}
	mid := j0.Start + dur/2
	spec := fmt.Sprintf("fail=0@%g,retries=%d,ckpt=%g,restart=%g",
		float64(mid), retries, float64(dur/5), float64(dur/50))
	if repair {
		spec += fmt.Sprintf(",repair=0@%g", float64(mid+dur/4))
	}
	cfg.Faults = mustFaultPlan(t, spec)
	return cfg, trace
}

// One scripted kill with a repair behind it: the job must come back via
// checkpoint/restart and the books must show the detour — a restart, at
// least one checkpoint, the re-executed work priced as LostWork, and the
// killed attempt's energy as WastedEnergy.
func TestCheckpointRestartAccounting(t *testing.T) {
	cfg, trace := checkpointScenario(t, 3, true)
	res, events := tracedRun(t, cfg, trace)

	if res.Failures != 1 || res.Repairs != 1 || res.Kills != 1 || res.Restarts != 1 {
		t.Fatalf("fail/repair/kill/restart = %d/%d/%d/%d, want 1/1/1/1",
			res.Failures, res.Repairs, res.Kills, res.Restarts)
	}
	j0 := res.Jobs[0]
	if j0.State != Done {
		t.Fatalf("killed job ended %s (%s), want done", j0.State, j0.Reason)
	}
	if j0.Restarts != 1 {
		t.Fatalf("job 0 restarts = %d, want 1", j0.Restarts)
	}
	if j0.Checkpoints < 1 || res.Checkpoints < j0.Checkpoints {
		t.Fatalf("job 0 checkpoints = %d (fleet %d), want ≥ 1 and ≤ fleet", j0.Checkpoints, res.Checkpoints)
	}
	if j0.LostWork <= 0 {
		t.Fatalf("job 0 lost work = %v, want > 0 for a mid-interval kill", j0.LostWork)
	}
	if j0.WastedEnergy <= 0 || j0.Energy <= j0.WastedEnergy {
		t.Fatalf("job 0 energy %v must exceed its wasted energy %v > 0", j0.Energy, j0.WastedEnergy)
	}
	if res.TotalEnergy < res.WastedEnergy {
		t.Fatalf("total energy %v below wasted energy %v", res.TotalEnergy, res.WastedEnergy)
	}
	if res.Availability >= 1 || res.Availability <= 0 {
		t.Fatalf("availability = %v, want inside (0, 1) with one failure interval", res.Availability)
	}
	if res.CapViolations != 0 {
		t.Fatalf("%d cap violations", res.CapViolations)
	}

	kinds := make(map[telemetry.Kind]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	for _, want := range []telemetry.Kind{
		telemetry.EvFail, telemetry.EvRepair, telemetry.EvKill,
		telemetry.EvCheckpoint, telemetry.EvRestart,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s events in the stream", want)
		}
	}
}

// A kill cancels the attempt's pending checkpoint (vacate), so no
// checkpoint fires for a killed attempt: on the event stream of an MTBF
// churn run, each job checkpoints only between an admit and its kill or
// finish — a checkpoint while the job waits to restart would save
// progress no rank is making.
func TestNoCheckpointAfterKill(t *testing.T) {
	cfg := Config{
		Platform: mustPlatform(t, "systemg:16,dori:16"),
		Cap:      1800,
		Policy:   Backfill(EEMax()),
		Seed:     1,
		Faults:   mustFaultPlan(t, "mtbf=*:1.5,mttr=*:0.2,retries=4,ckpt=0.05,restart=0.05"),
	}
	res, events := tracedRun(t, cfg, SyntheticTrace(TraceConfig{Jobs: 32, Seed: 1}))
	running := map[int]bool{}
	ckpts := 0
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.EvAdmit:
			running[ev.Job] = true
		case telemetry.EvKill, telemetry.EvFinish:
			running[ev.Job] = false
		case telemetry.EvCheckpoint:
			if !running[ev.Job] {
				t.Fatalf("t=%v: job %d checkpointed while not running", ev.T, ev.Job)
			}
			ckpts++
		}
	}
	if res.Kills == 0 || res.Restarts == 0 || ckpts != res.Checkpoints || ckpts == 0 {
		t.Fatalf("%d kills, %d restarts, %d checkpoint events for %d checkpoints; want kills of checkpointing jobs",
			res.Kills, res.Restarts, ckpts, res.Checkpoints)
	}
}

// The same kill with the retry cap at zero and no repair: the job is
// permanently lost, reported as Lost (not Rejected — it consumed cluster
// time), and the rest of the trace completes on the surviving capacity.
func TestRetryCapExhaustedJobLost(t *testing.T) {
	cfg, trace := checkpointScenario(t, 0, false)
	res, events := tracedRun(t, cfg, trace)

	j0 := res.Jobs[0]
	if j0.State != Lost {
		t.Fatalf("job 0 ended %s (%s), want lost with retries=0", j0.State, j0.Reason)
	}
	if !strings.Contains(j0.Reason, "retry cap") {
		t.Fatalf("job 0 reason %q does not name the retry cap", j0.Reason)
	}
	if res.JobsLost != 1 || res.Completed != len(trace)-1 {
		t.Fatalf("lost=%d done=%d, want 1 lost and %d done", res.JobsLost, res.Completed, len(trace)-1)
	}
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 with the retry cap at zero", res.Restarts)
	}
	if res.Availability >= 1 {
		t.Fatalf("availability = %v, want < 1 with an unrepaired failure", res.Availability)
	}
	if res.CapViolations != 0 {
		t.Fatalf("%d cap violations", res.CapViolations)
	}
	lostKills := 0
	for _, ev := range events {
		if ev.Kind == telemetry.EvKill && strings.Contains(ev.Reason, "lost") {
			lostKills++
		}
	}
	if lostKills != 1 {
		t.Fatalf("%d kill events marked lost, want 1", lostKills)
	}
}

// A power emergency is a window of the cap plan: with a rank failing
// inside the 1100 W clamp, the audit must judge every sample against
// the clamped timeline and find zero violations, the result must carry
// the plan and its window ledger, and the stream must carry the plan
// edges into and out of the clamp.
func TestEmergencyEffectiveCap(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 32, Seed: 1})
	cfg := Config{
		Platform: machine.Homogeneous(machine.SystemG()),
		Ranks:    32,
		Plan: mustSteps(t,
			capplan.Segment{Start: 0, Cap: 1500},
			capplan.Segment{Start: 0.3, Cap: 1100},
			capplan.Segment{Start: 0.9, Cap: 1500},
		),
		Policy: Backfill(EEMax()),
		Seed:   1,
		Faults: mustFaultPlan(t, "fail=2@0.5,repair=2@0.7,retries=1,ckpt=0.1"),
	}
	res, events := tracedRun(t, cfg, trace)

	if res.CapViolations != 0 {
		t.Fatalf("%d violations against the cap plan", res.CapViolations)
	}
	if res.Failures != 1 || res.Repairs != 1 {
		t.Fatalf("%d failures and %d repairs, want one of each inside the clamp", res.Failures, res.Repairs)
	}
	if res.Plan != "0:1500,0.3:1100,0.9:1500" {
		t.Fatalf("result plan %q, want the configured one", res.Plan)
	}
	var clamped *WindowStat
	for i := range res.Windows {
		if res.Windows[i].Cap == 1100 {
			clamped = &res.Windows[i]
		}
		if res.Windows[i].Violations != 0 {
			t.Fatalf("window [%v, %v) cap %v has %d violations",
				res.Windows[i].Start, res.Windows[i].End, res.Windows[i].Cap, res.Windows[i].Violations)
		}
	}
	if clamped == nil {
		t.Fatalf("no 1100 W window in %d window stats", len(res.Windows))
	}
	if clamped.Start != 0.3 {
		t.Fatalf("clamped window starts at %v, want 0.3", clamped.Start)
	}
	edges := map[units.Seconds]units.Watts{}
	for _, ev := range events {
		if ev.Kind == telemetry.EvPlanEdge && ev.Reason != "pre-drop" {
			edges[ev.T] = ev.Cap
		}
	}
	if edges[0.3] != 1100 || edges[0.9] != 1500 {
		t.Fatalf("plan edges %v, want 1100 W at 0.3 s and 1500 W at 0.9 s", edges)
	}
}

// Liveness under churn (the reservation property): with backfill holding
// reservations while a fast MTBF/MTTR process kills ranks underneath
// them, no job may wait forever on a dead reservation — every run must
// drain with every job terminal, and still violation-free. Failures are
// frequent relative to the makespan, so reservations and failures
// genuinely interleave across the seeds.
func TestReservationsSurviveRankFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("six fault-churn schedules")
	}
	plan := mustFaultPlan(t, "mtbf=*:0.6,mttr=*:0.1,retries=6,ckpt=0.05,restart=0.01")
	totalFailures, totalRestarts := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: seed})
		s, err := New(Config{
			Platform: machine.Homogeneous(machine.SystemG()),
			Ranks:    8,
			Cap:      450,
			Policy:   Backfill(EEMax()),
			Seed:     seed,
			Faults:   plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.CapViolations != 0 {
			t.Errorf("seed %d: %d cap violations", seed, res.CapViolations)
		}
		for _, j := range res.Jobs {
			if j.State != Done && j.State != Rejected && j.State != Lost {
				t.Errorf("seed %d: job %d stranded in state %s", seed, j.ID, j.State)
			}
		}
		if got := res.Completed + res.Rejected + res.JobsLost; got != len(trace) {
			t.Errorf("seed %d: %d terminal jobs, want %d", seed, got, len(trace))
		}
		totalFailures += res.Failures
		totalRestarts += res.Restarts
	}
	if totalFailures == 0 {
		t.Fatal("churn plan injected no failures at all — the property was not exercised")
	}
	if totalRestarts == 0 {
		t.Fatal("no job ever restarted — kills never hit running work")
	}
}

// Scripted events aimed at ranks the run never loses — repairs of
// healthy ranks, duplicate failures — must be inert, not crash.
func TestScriptedNoOpEventsAreInert(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 8, Seed: 3, MaxWidth: 8})
	s, err := New(Config{
		Platform: machine.Homogeneous(machine.SystemG()),
		Ranks:    8,
		Cap:      450,
		Policy:   EEMax(),
		Seed:     1,
		Faults:   mustFaultPlan(t, "repair=3@0.01,fail=3@0.05,fail=3@0.06,repair=3@0.1,repair=3@0.2,retries=2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 || res.Repairs != 1 {
		t.Fatalf("fail/repair = %d/%d, want 1/1 (duplicates inert)", res.Failures, res.Repairs)
	}
	if got := res.Completed + res.Rejected + res.JobsLost; got != len(trace) {
		t.Fatalf("%d terminal jobs, want %d", got, len(trace))
	}
}

// A scripted failure aimed past the cluster is a configuration error New
// must reject, not an index panic at fire time.
func TestFaultPlanRankBoundsChecked(t *testing.T) {
	_, err := New(Config{
		Platform: machine.Homogeneous(machine.SystemG()),
		Ranks:    8,
		Cap:      450,
		Policy:   FIFO(),
		Seed:     1,
		Faults:   mustFaultPlan(t, "fail=8@0.1,retries=1"),
	})
	if err == nil {
		t.Fatal("New accepted a scripted failure of rank 8 on an 8-rank cluster")
	}
	if !strings.Contains(err.Error(), "rank") {
		t.Fatalf("error %q does not name the offending rank", err)
	}
}

// A width-rigid policy must park — not lose — a killed job while the
// failed rank's MTTR repair is still pending. Regression: the MTBF
// chain used to mark the repair pending only after failRank's admission
// pass, so fifo (which needs the full cluster width) saw the dead rank
// as permanently gone and finalised the requeued job as lost with
// retries to spare.
func TestMTBFRepairPendingParksRigidJobs(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 8, Seed: 1})
	s, err := New(Config{
		Platform: machine.Homogeneous(machine.Dori()),
		Ranks:    8,
		Cap:      400,
		Policy:   FIFO(),
		Seed:     1,
		Faults:   mustFaultPlan(t, "mtbf=*:2,mttr=*:0.1,retries=6,ckpt=0.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills == 0 {
		t.Fatal("no job was ever killed — the scenario does not exercise the requeue path")
	}
	if res.Restarts == 0 {
		t.Error("killed jobs never restarted: they should park for the pending repair")
	}
	if res.JobsLost != 0 {
		t.Errorf("%d jobs lost with retries to spare — killed jobs must wait for the pending MTTR repair", res.JobsLost)
	}
	if res.CapViolations != 0 {
		t.Errorf("%d cap violations", res.CapViolations)
	}
}

// Kill → requeue → restart on recycled storage: on a noisy (per-rank
// chains), checkpointed, MTBF-faulted run, every attempt draws its
// running-job record, rank set, chain list and checkpoint callback from
// what finished and killed attempts returned, so the run makes no more
// records than it has ranks while it restarts many more attempts. The
// Result — every count, float and per-job record, folded into an FNV
// digest — is the one the parent commit computed with a fresh record per
// attempt.
func TestRecycledAttemptsKeepSchedule(t *testing.T) {
	s, err := New(Config{
		Platform: mustPlatform(t, "systemg:16,dori:16"), Cap: 1800, Policy: Backfill(EEMax()), EdgeRetune: true,
		Noise: cluster.DefaultNoise(), Seed: 11,
		Faults: mustFaultPlan(t, "mtbf=*:1.5,mttr=*:0.2,retries=4,ckpt=0.1,restart=0.05"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 96, Seed: 11, MaxWidth: 16}))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	for _, j := range res.Jobs {
		fmt.Fprintf(h, "%d %v %s %d %x %d %x %x %x %d %d %x %x %t|", j.ID, j.State, j.Pool, j.P, bits(float64(j.StartFreq)), j.FreqChanges,
			bits(float64(j.Start)), bits(float64(j.End)), bits(float64(j.Energy)),
			j.Restarts, j.Checkpoints, bits(float64(j.LostWork)), bits(float64(j.WastedEnergy)), j.Backfilled)
	}
	got := fmt.Sprintf("done=%d lost=%d rej=%d kills=%d restarts=%d ckpts=%d makespan=%v energy=%v wasted=%v lostwork=%v retunes=%d bypass=%d digest=%016x",
		res.Completed, res.JobsLost, res.Rejected, res.Kills, res.Restarts, res.Checkpoints, float64(res.Makespan), float64(res.TotalEnergy),
		float64(res.WastedEnergy), float64(res.LostWork), res.FreqChanges, res.HeadBypasses, h.Sum64())
	const parent = "done=82 lost=14 rej=0 kills=111 restarts=97 ckpts=407 makespan=14.648266653635632 energy=15281.183376782128 " +
		"wasted=3013.9262209771478 lostwork=4.285657205681258 retunes=304 bypass=165 digest=1fc6c2f4570b2200"
	if got != parent {
		t.Errorf("faulted noisy run:\n got %s\nwant %s", got, parent)
	}
	// Every attempt ended in a finish or a kill, which returned its record.
	if made := len(s.spareJobs); made > s.cl.Ranks() || made >= res.Restarts {
		t.Errorf("%d running-job records made for %d attempts (%d restarts) on %d ranks; want them recycled",
			made, res.Completed+res.Kills, res.Restarts, s.cl.Ranks())
	}
}
