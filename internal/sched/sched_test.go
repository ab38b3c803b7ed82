package sched

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/capplan"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/opcache"
	"repro/internal/units"
)

func testSpec() machine.Spec { return machine.SystemG() }

func epJob(id int, width int) Job {
	return Job{ID: id, Vector: app.EP(), N: 1e7, MaxWidth: width}
}

// Satellite edge case: a cap below even one parked node's idle power
// must be rejected at construction — no spinning, no partial schedule.
func TestCapBelowSingleNodeIdleRejected(t *testing.T) {
	_, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 1, Cap: 10})
	if err == nil {
		t.Fatal("cap below a single node's idle power must be rejected")
	}
	if !strings.Contains(err.Error(), "idle floor") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// A cap above the idle floor but below any job's cheapest operating
// point rejects the jobs (terminally) instead of looping.
func TestInfeasibleJobsRejectedNotLooped(t *testing.T) {
	spec := testSpec()
	mpMin, err := spec.AtFrequency(spec.MinFrequency())
	if err != nil {
		t.Fatal(err)
	}
	floor := units.Watts(2 * float64(mpMin.PsysIdle))
	s, err := New(Config{Platform: machine.Homogeneous(spec), Ranks: 2, Cap: floor + 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{epJob(0, 2), epJob(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 2 || res.Completed != 0 {
		t.Fatalf("want both jobs rejected, got %d rejected %d completed", res.Rejected, res.Completed)
	}
	for _, j := range res.Jobs {
		if j.State != Rejected || j.Reason == "" {
			t.Fatalf("job %d: state %v reason %q", j.ID, j.State, j.Reason)
		}
	}
}

// A cap with room for exactly one job at a time serialises the queue:
// both jobs complete, never overlapping.
func TestCapAdmitsExactlyOneJob(t *testing.T) {
	spec := testSpec()
	mpMin, err := spec.AtFrequency(spec.MinFrequency())
	if err != nil {
		t.Fatal(err)
	}
	floor := units.Watts(2 * float64(mpMin.PsysIdle))
	s, err := New(Config{Platform: machine.Homogeneous(spec), Ranks: 2, Cap: floor + 12, Policy: EEMax()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{epJob(0, 1), epJob(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("want 2 completed, got %+v", res)
	}
	a, b := res.Jobs[0], res.Jobs[1]
	if a.Start > b.Start {
		a, b = b, a
	}
	if b.Start < a.End {
		t.Fatalf("jobs overlap under a one-job cap: [%v,%v] vs [%v,%v]", a.Start, a.End, b.Start, b.End)
	}
	if res.CapViolations != 0 {
		t.Fatalf("cap violated %d times", res.CapViolations)
	}
}

// An empty queue completes trivially.
func TestEmptyQueue(t *testing.T) {
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 4, Cap: 500})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 0 || res.Completed != 0 || res.CapViolations != 0 {
		t.Fatalf("empty run not clean: %+v", res)
	}
}

// A job demanding more ranks than the cluster has is rejected, while
// moldable jobs (MinWidth within the cluster) shrink to fit.
func TestJobWiderThanCluster(t *testing.T) {
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 4, Cap: 2000})
	if err != nil {
		t.Fatal(err)
	}
	rigid := Job{ID: 0, Vector: app.EP(), N: 1e7, MinWidth: 8, MaxWidth: 8}
	moldable := Job{ID: 1, Vector: app.EP(), N: 1e7, MaxWidth: 16}
	res, err := s.Run([]Job{rigid, moldable})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].State != Rejected {
		t.Fatalf("rigid 8-wide job on a 4-rank cluster: %v", res.Jobs[0].State)
	}
	if res.Jobs[1].State != Done || res.Jobs[1].P > 4 {
		t.Fatalf("moldable job should shrink to fit: %+v", res.Jobs[1])
	}
}

// Satellite edge case: two runs with the same seed produce the same
// schedule, bit for bit.
func TestScheduleDeterministic(t *testing.T) {
	run := func() Result {
		s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 16, Cap: 900, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 24, Seed: 11, MaxWidth: 8}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	// Jobs carry function-valued vectors; compare the scalar fields.
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		ja.Job, jb.Job = Job{}, Job{}
		if !reflect.DeepEqual(ja, jb) {
			t.Fatalf("job %d differs between identical runs:\n%+v\n%+v", i, ja, jb)
		}
	}
	a.Jobs, b.Jobs = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fleet results differ between identical runs:\n%+v\n%+v", a, b)
	}
}

// compareResults asserts two schedules are identical field for field
// (Jobs carry function-valued vectors, so their scalar records are
// compared with the Job zeroed).
func compareResults(t *testing.T, label string, a, b Result) {
	t.Helper()
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		ja.Job, jb.Job = Job{}, Job{}
		if !reflect.DeepEqual(ja, jb) {
			t.Fatalf("%s: job %d differs:\n%+v\n%+v", label, i, ja, jb)
		}
	}
	a.Jobs, b.Jobs = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: fleet results differ:\n%+v\n%+v", label, a, b)
	}
}

// Execution-shape equivalence: one event chain over a job's whole rank
// set and one chain per rank must produce bit-identical noise-free
// schedules — the span is an optimisation, never a semantic change. The
// churn case puts kills under both shapes: a kill must cancel every
// chain's pending event and write off every rank's in-flight op, or the
// books (LostWork, WastedEnergy, restart timing) drift apart.
func TestLockstepMatchesPerRankChains(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 11, MaxWidth: 8})
	base := Config{Platform: machine.Homogeneous(testSpec()), Ranks: 16, Cap: 900, Policy: Backfill(EEMax()), Seed: 11}
	run := func(cfg Config, lockstep bool) Result {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !s.lockstep {
			t.Fatal("a noise-free config must select the one-chain shape")
		}
		s.lockstep = lockstep
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(base, true)
	compareResults(t, "one chain vs per-rank chains", plain, run(base, false))

	// Scripted mid-phase failures of two ranks, each repaired, with
	// checkpoints, a restart surcharge and an emergency window on top.
	span := float64(plain.Makespan)
	churn := base
	churn.Faults = mustFaultPlan(t, fmt.Sprintf(
		"fail=0@%g,repair=0@%g,fail=5@%g,repair=5@%g,emer=%g-%g:700,retries=4,ckpt=%g,restart=%g",
		0.21*span, 0.29*span, 0.47*span, 0.58*span, 0.35*span, 0.55*span, 0.03*span, 0.004*span))
	one, perRank := run(churn, true), run(churn, false)
	compareResults(t, "one chain vs per-rank chains under kills", one, perRank)
	if one.Kills == 0 || one.Restarts == 0 || one.Checkpoints == 0 || one.LostWork <= 0 || one.WastedEnergy <= 0 {
		t.Fatalf("churn case exercised no kill path: kills=%d restarts=%d ckpts=%d lostwork=%v wasted=%v",
			one.Kills, one.Restarts, one.Checkpoints, one.LostWork, one.WastedEnergy)
	}
	if one.CapViolations != 0 {
		t.Fatalf("%d cap violations under churn", one.CapViolations)
	}
}

// Dispatching a noise-free job costs three objects — the rank set, the
// runningJob and the first phase's completion closure — as it did when
// the lockstep path was its own function: the single chain lives inside
// the runningJob.
func TestDispatchAllocations(t *testing.T) {
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 8, Cap: 2000})
	if err != nil {
		t.Fatal(err)
	}
	j := epJob(0, 4)
	e := &entry{job: j, res: JobResult{Job: j}}
	cand, ok := s.liveContext(false).At(e, 0, 4, testSpec().BaseFreq)
	if !ok {
		t.Fatal("no candidate at the base frequency")
	}
	ps := &s.pools[0]
	free := append([]int(nil), ps.free...)
	dispatch := func() {
		s.start(e, cand, false, 0)
		// Undo it by hand, without running the kernel (the armed event
		// never fires) and without vacate's free-list merge, so the
		// count is start's alone.
		for _, r := range s.running[0].ranks {
			s.cl.CompleteOp(r)
			s.retuneRank(r, ps.ladder[0])
			s.owner[r] = nil
		}
		ps.free, s.running = append(ps.free[:0], free...), s.running[:0]
	}
	dispatch() // size the running list and price the op-cache row
	if got := testing.AllocsPerRun(100, dispatch); got != 3 {
		t.Fatalf("dispatching a noise-free job allocates %v objects, want 3", got)
	}
}

// Noisy execution takes the per-rank event path (jitter desynchronises
// ranks); it must still replay bit for bit under one seed.
func TestNoisyScheduleDeterministic(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 16, Seed: 7, MaxWidth: 8})
	run := func() Result {
		s, err := New(Config{
			Platform: machine.Homogeneous(testSpec()), Ranks: 16, Cap: 900, Seed: 7,
			Noise: cluster.DefaultNoise(), NoisyMeter: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.lockstep {
			t.Fatal("noisy config must select one chain per rank")
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compareResults(t, "noisy determinism", run(), run())
}

// Regression for the phantom cap violation the retune-aware meter fixed:
// at a tight cap the backfilled 64-job trace hands ranks from a
// low-frequency job to a high-frequency one mid-sampling-window; pricing
// the whole window at window-end parameters used to report a violation
// (peak 2042 W vs the 2000 W cap) even though no instant ever exceeded
// the cap. The piecewise-exact meter must report zero.
func TestTightCapBackfillNoPhantomViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("full 64-job trace")
	}
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 64, Cap: 2000, Policy: Backfill(EEMax()), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 64, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.CapViolations != 0 {
		t.Fatalf("%d phantom cap violations (peak %v, cap %v)", res.CapViolations, res.PeakPower, res.Cap)
	}
	if float64(res.PeakPower) > float64(res.Cap)*(1+1e-9) {
		t.Fatalf("measured peak %v exceeds cap %v", res.PeakPower, res.Cap)
	}
}

// White-box: every repricing is absorbed before it reaches the
// evaluator. A job's rows are priced once into its entry (priced) and
// every later scheduling edge reads them there, so on a contended trace
// each row is evaluated once, and the entries drop their rows as jobs
// leave, so nothing grows with trace length. The evaluation count is the
// parent commit's, whose memo saw no hit; the memo now sees no traffic.
func TestOpCacheAbsorbsRepricing(t *testing.T) {
	const jobs, parentMisses = 24, 96
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 16, Cap: 900, Policy: Backfill(EEMax()), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(SyntheticTrace(TraceConfig{Jobs: jobs, Seed: 3, MaxWidth: 8})); err != nil {
		t.Fatal(err)
	}
	if st := s.cacheStats(); st != (opcache.Stats{Misses: parentMisses}) {
		t.Fatalf("op-cache counters %+v; want the parent's %d evaluations, no hit and no forget", st, parentMisses)
	}
	for id, e := range s.entries {
		if e.grid != nil || e.floor != nil {
			t.Fatalf("job %d left the system holding %d rows", id, len(e.grid))
		}
	}
}

// Every policy — bare and wrapped in backfill reservations — honours
// the cap on a contended trace, and the energy books balance: job
// energy + parked energy equals the profiler's integrated trace (small
// slack for windows spanning mid-window retunes, which the profiler
// prices at window-end parameters).
func TestPoliciesRespectCapAndEnergyBooks(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 3, MaxWidth: 8})
	pols := make(map[string]Policy)
	for name, pol := range Policies() {
		pols[name] = pol
		pols["backfill+"+name] = Backfill(pol)
	}
	for name, pol := range pols {
		s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 16, Cap: 900, Policy: pol, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.CapViolations != 0 {
			t.Errorf("%s: %d cap violations in %d samples (peak %v, cap %v)",
				name, res.CapViolations, res.Samples, res.PeakPower, res.Cap)
		}
		if float64(res.PeakPower) > float64(res.Cap)*(1+1e-9) {
			t.Errorf("%s: peak %v exceeds cap %v", name, res.PeakPower, res.Cap)
		}
		if res.Completed+res.Rejected != len(trace) {
			t.Errorf("%s: %d jobs unaccounted", name, len(trace)-res.Completed-res.Rejected)
		}
		var jobsE units.Joules
		for _, j := range res.Jobs {
			jobsE += j.Energy
		}
		if got, want := float64(jobsE+res.ParkedEnergy), float64(res.TotalEnergy); math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: ledger mismatch: jobs+parked %g vs total %g", name, got, want)
		}
		traceE := float64(s.prof.Profile().Energy())
		if diff := math.Abs(traceE - float64(res.TotalEnergy)); diff > 0.02*traceE {
			t.Errorf("%s: attributed energy %v vs profiled %g J differs by %.2f%%",
				name, res.TotalEnergy, traceE, diff/traceE*100)
		}
	}
}

// White-box: the governor's throttle loop steps running jobs down the
// ladder until the predicted draw fits the cap, and stops at the floor.
func TestGovernorThrottle(t *testing.T) {
	spec := testSpec()
	s, err := New(Config{Platform: machine.Homogeneous(spec), Ranks: 4, Cap: 2000})
	if err != nil {
		t.Fatal(err)
	}
	j := epJob(0, 2)
	e := &entry{job: j, res: JobResult{Job: j, State: Running}}
	prof, _ := s.priced(e, 0, 2)
	if prof == nil {
		t.Fatal("the job does not price")
	}
	top := len(s.pools[0].ladder) - 1
	rj := &runningJob{e: e, ranks: []int{0, 1}, fIdx: top, admIdx: top, prof: prof}
	s.pools[0].free = []int{2, 3}
	s.running = []*runningJob{rj}
	for _, r := range rj.ranks {
		if err := s.cl.SetRankFrequency(r, s.pools[0].ladder[top]); err != nil {
			t.Fatal(err)
		}
	}
	// Lower the cap below the current predicted draw: the governor must
	// shed power by stepping the job down, never below the floor.
	s.effPlan = capplan.Constant(s.predictedTotal() - 1)
	g := &governor{s: s}
	g.throttle()
	if rj.fIdx >= top {
		t.Fatalf("throttle did not step down: fIdx=%d", rj.fIdx)
	}
	if s.predictedTotal() > s.capAt(0) && rj.fIdx != 0 {
		t.Fatalf("throttle stopped early: predicted %v > cap %v at fIdx=%d",
			s.predictedTotal(), s.capAt(0), rj.fIdx)
	}
	if e.res.FreqChanges == 0 {
		t.Fatal("retunes not recorded")
	}
	// An impossible cap drains to the ladder floor and stops (no loop).
	s.effPlan = capplan.Constant(1)
	g.throttle()
	if rj.fIdx != 0 {
		t.Fatalf("throttle should bottom out at the ladder floor, got fIdx=%d", rj.fIdx)
	}
}

// The synthetic trace generator is deterministic and well-formed.
func TestSyntheticTrace(t *testing.T) {
	for _, n := range []int{0, -1} {
		if got := SyntheticTrace(TraceConfig{Jobs: n, Seed: 9}); len(got) != 0 {
			t.Fatalf("Jobs %d: want an empty trace, got %d jobs", n, len(got))
		}
	}
	a := SyntheticTrace(TraceConfig{Jobs: 32, Seed: 9})
	b := SyntheticTrace(TraceConfig{Jobs: 32, Seed: 9})
	if len(a) != 32 {
		t.Fatalf("want 32 jobs, got %d", len(a))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].N != b[i].N || a[i].Arrival != b[i].Arrival ||
			a[i].MaxWidth != b[i].MaxWidth || a[i].Priority != b[i].Priority ||
			a[i].Vector.Name != b[i].Vector.Name {
			t.Fatalf("trace not deterministic at job %d: %+v vs %+v", i, a[i], b[i])
		}
		if err := a[i].validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// narrowRuntime measures how long one serial EP job takes alone on the
// test cluster — the yardstick the starvation trace is built from.
func narrowRuntime(t *testing.T, n float64) units.Seconds {
	t.Helper()
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 8, Cap: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{{ID: 0, Vector: app.EP(), N: n, MaxWidth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("probe job did not complete: %+v", res.Jobs[0])
	}
	return res.Jobs[0].End - res.Jobs[0].Start
}

// starvationTrace is the liveness regression workload: a rigid 8-wide
// job arrives into a continuous stream of serial jobs whose lifetimes
// overlap, so the cluster never has 8 ranks free at once on its own.
func starvationTrace(r units.Seconds) []Job {
	jobs := []Job{
		{ID: 0, Vector: app.EP(), N: 4e6, MaxWidth: 1, Arrival: 0},
		{ID: 1, Vector: app.EP(), N: 1e7, MinWidth: 8, MaxWidth: 8, Arrival: r / 4},
	}
	for i := 2; i < 26; i++ {
		jobs = append(jobs, Job{
			ID: i, Vector: app.EP(), N: 4e6, MaxWidth: 1,
			Arrival: units.Seconds(float64(i-1) * float64(r) / 2),
		})
	}
	return jobs
}

// Tentpole regression: under greedy admission a continuous narrow
// stream defers the wide job until the stream ends; under EASY backfill
// the reservation bounds its wait to roughly one narrow-job drain.
func TestBackfillBoundsWideJobStarvation(t *testing.T) {
	r := narrowRuntime(t, 4e6)
	trace := starvationTrace(r)
	run := func(pol Policy) Result {
		s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 8, Cap: 2000, Policy: pol, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	greedy := run(EEMax())
	easy := run(Backfill(EEMax()))

	gw, ew := greedy.Jobs[1], easy.Jobs[1]
	if gw.State != Done || ew.State != Done {
		t.Fatalf("wide job must complete under both: greedy %v, backfill %v", gw.State, ew.State)
	}
	// The greedy baseline demonstrably defers the wide job deep into
	// the stream…
	if float64(gw.Wait) < 6*float64(r) {
		t.Fatalf("greedy baseline did not starve the wide job: wait %v vs narrow runtime %v", gw.Wait, r)
	}
	// …while the reservation bounds its wait to about one narrow-job
	// drain (slack for slice quantisation).
	if float64(ew.Wait) > 2.5*float64(r) {
		t.Fatalf("backfill did not bound the wide job's wait: %v vs narrow runtime %v", ew.Wait, r)
	}
	if easy.CapViolations != 0 {
		t.Fatalf("backfill violated the cap %d times", easy.CapViolations)
	}
	// Everything else still completes — reservations trade throughput,
	// not liveness elsewhere.
	if easy.Completed != len(trace) {
		t.Fatalf("backfill completed %d of %d jobs", easy.Completed, len(trace))
	}
	// The greedy pass bypassed the waiting head; backfill bounds that.
	if greedy.HeadBypasses == 0 {
		t.Fatal("greedy baseline should record head bypasses")
	}
	if easy.HeadBypasses >= greedy.HeadBypasses {
		t.Fatalf("backfill should bypass the head less: %d vs greedy %d", easy.HeadBypasses, greedy.HeadBypasses)
	}
}

// Acceptance: on the schedrun default trace backfill keeps every wait
// bounded below the greedy tail, marks backfilled jobs, and never
// violates the cap.
func TestBackfillOn64JobTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full 64-job trace")
	}
	trace := SyntheticTrace(TraceConfig{Jobs: 64, Seed: 1})
	run := func(pol Policy) Result {
		s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 64, Cap: 2500, Policy: pol, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	greedy := run(EEMax())
	easy := run(Backfill(EEMax()))
	if easy.Completed != 64 || easy.CapViolations != 0 {
		t.Fatalf("backfill on the 64-job trace: %+v", easy)
	}
	if easy.MaxWait >= greedy.MaxWait {
		t.Fatalf("backfill max wait %v should undercut greedy %v", easy.MaxWait, greedy.MaxWait)
	}
	if easy.BackfilledJobs == 0 {
		t.Fatal("no job was marked Backfilled on a contended trace")
	}
}

// Backfilled schedules are as deterministic as bare ones: one seed, one
// schedule, bit for bit — reservations included.
func TestBackfillDeterministic(t *testing.T) {
	run := func() Result {
		s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 16, Cap: 900, Policy: Backfill(EEMax()), Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(SyntheticTrace(TraceConfig{Jobs: 24, Seed: 11, MaxWidth: 8}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		ja.Job, jb.Job = Job{}, Job{}
		if !reflect.DeepEqual(ja, jb) {
			t.Fatalf("job %d differs between identical backfill runs:\n%+v\n%+v", i, ja, jb)
		}
	}
}

// Wrapping is idempotent and composes the report name.
func TestBackfillWrapping(t *testing.T) {
	bf := Backfill(EEMax())
	if bf.Name() != "backfill+ee-max" {
		t.Fatalf("name %q", bf.Name())
	}
	if Backfill(bf) != bf {
		t.Fatal("double wrapping must be a no-op")
	}
	if bf.DVFS() != EEMax().DVFS() || Backfill(FIFO()).DVFS() != FIFO().DVFS() {
		t.Fatal("DVFS must delegate to the inner policy")
	}
}

// Satellite regression: a flat-energy ladder segment is not a gain —
// the governor must not walk jobs across it (retune churn with no
// benefit). Before the strict-improvement epsilon, equal predicted
// energy counted as a gain and every sample retuned.
func TestGovernorBoostFlatEnergyLadderNoChurn(t *testing.T) {
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 4, Cap: 4000})
	if err != nil {
		t.Fatal(err)
	}
	j := epJob(0, 2)
	e := &entry{job: j, res: JobResult{Job: j, State: Running}}
	n := len(s.pools[0].ladder)
	lp := &opcache.Row{
		Pred: make([]core.Prediction, n),
		Draw: make([]units.Watts, n),
	}
	for i := 0; i < n; i++ {
		lp.Pred[i].EE = 0.5 // flat EE…
		lp.Pred[i].Ep = 100 // …and flat predicted energy
		lp.Pred[i].Tp = 1
		lp.Draw[i] = units.Watts(50 + 10*i)
	}
	rj := &runningJob{e: e, ranks: []int{0, 1}, fIdx: 0, admIdx: 0, prof: lp}
	s.running = []*runningJob{rj}
	s.pools[0].free = []int{2, 3}
	s.queue = []*entry{{job: epJob(1, 1)}} // contended: not drain mode
	s.blocked = true                       // loanable watts on offer
	g := &governor{s: s}
	g.boost()
	if rj.fIdx != 0 || e.res.FreqChanges != 0 {
		t.Fatalf("flat ladder caused retune churn: fIdx=%d retunes=%d", rj.fIdx, e.res.FreqChanges)
	}
}

// Satellite regression: the throttle victim order is lowest priority,
// then biggest shed per step, then *highest* ID — as the doc comment
// always promised. On equal priority and equal saving the higher-ID
// job steps down first.
func TestGovernorThrottleVictimTieBreak(t *testing.T) {
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 4, Cap: 4000})
	if err != nil {
		t.Fatal(err)
	}
	top := len(s.pools[0].ladder) - 1
	mk := func(id int, ranks []int) *runningJob {
		j := epJob(id, 2)
		e := &entry{job: j, res: JobResult{Job: j, State: Running}}
		prof, _ := s.priced(e, 0, 2)
		if prof == nil {
			t.Fatal("the job does not price")
		}
		rj := &runningJob{e: e, ranks: ranks, fIdx: top, admIdx: top, prof: prof}
		for _, r := range ranks {
			if err := s.cl.SetRankFrequency(r, s.pools[0].ladder[top]); err != nil {
				t.Fatal(err)
			}
		}
		return rj
	}
	a, b := mk(0, []int{0, 1}), mk(1, []int{2, 3})
	s.running = []*runningJob{a, b}
	s.pools[0].free = nil
	s.effPlan = capplan.Constant(s.predictedTotal() - 1) // one step from either job suffices
	g := &governor{s: s}
	g.throttle()
	if a.fIdx != top || b.fIdx != top-1 {
		t.Fatalf("tie-break picked the wrong victim: job0 fIdx=%d job1 fIdx=%d (want job1 stepped down)", a.fIdx, b.fIdx)
	}
}

// A scheduler is single-use.
func TestSchedulerSingleUse(t *testing.T) {
	s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 2, Cap: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err == nil {
		t.Fatal("second Run must fail")
	}
}
