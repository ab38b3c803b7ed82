package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/app"
	"repro/internal/capplan"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/opcache"
	"repro/internal/units"
)

// queueAudit wraps the configured policy and checks the queue
// invariants every time the scheduler consults it — at the start of
// each admission pass and of each idle-cluster feasibility probe.
type queueAudit struct {
	Policy
	t      *testing.T
	label  string
	passes int
}

func (a *queueAudit) Admit(ctx *AdmitContext) {
	a.passes++
	a.check(ctx.s)
	a.Policy.Admit(ctx)
}

// check compares the maintained priority view to the reference the
// scheduler used to rebuild per pass — a stable sort of the live queue
// by (priority desc, arrival, ID) — and asserts no pass left a taken
// bit behind.
func (a *queueAudit) check(s *Scheduler) {
	a.t.Helper()
	want := append([]*entry(nil), s.queue...)
	sort.SliceStable(want, func(x, y int) bool {
		jx, jy := &want[x].job, &want[y].job
		if jx.priority() != jy.priority() {
			return jx.priority() > jy.priority()
		}
		if jx.Arrival != jy.Arrival {
			return jx.Arrival < jy.Arrival
		}
		return jx.ID < jy.ID
	})
	if !slices.Equal(s.prio, want) {
		a.t.Fatalf("%s: pass %d: priority view diverged from the sorted queue (%d vs %d entries)",
			a.label, a.passes, len(s.prio), len(want))
	}
	for _, e := range s.entries {
		if e.taken {
			a.t.Fatalf("%s: pass %d: job %d still marked taken after its pass", a.label, a.passes, e.job.ID)
		}
	}
	for _, e := range s.queue {
		if e.res.State != Queued {
			a.t.Fatalf("%s: pass %d: job %d is %s but still queued", a.label, a.passes, e.job.ID, e.res.State)
		}
	}
}

// The tentpole's safety net: across policy families, backfill depths,
// fault churn (requeues re-enter at the tail) and platform shapes, the
// maintained priority view always equals the per-pass re-sort it
// replaced, and the pass-scoped taken bits never leak.
func TestPriorityViewMatchesSortedQueue(t *testing.T) {
	trace := SyntheticTrace(TraceConfig{Jobs: 48, Seed: 3})
	// Twins tie on (priority, arrival) and enqueue after their original
	// with a smaller ID, so only the view's ID key orders them.
	for i := 0; i < 6; i++ {
		twin := trace[7*i]
		twin.ID = -1 - i
		trace = append(trace, twin)
	}
	churn := mustFaultPlan(t, "mtbf=*:1.5,mttr=*:0.2,retries=4,ckpt=0.15,restart=0.05")
	platforms := []struct {
		label    string
		platform machine.Platform
		cap      units.Watts
	}{
		{"systemg", machine.Homogeneous(machine.SystemG()), 1500},
		{"systemg+dori", mustPlatform(t, "systemg:16,dori:16"), 1800},
	}
	for _, inner := range []func() Policy{FIFO, EEMax, FairShare} {
		for _, k := range []int{0, 1, 3} {
			for _, flt := range []*faults.Plan{nil, churn} {
				for _, pf := range platforms {
					pol := inner()
					if k > 0 {
						pol = BackfillN(pol, k)
					}
					audit := &queueAudit{Policy: pol, t: t}
					audit.label = fmt.Sprintf("%s/%s/faults=%t", pol.Name(), pf.label, flt != nil)
					s, err := New(Config{Platform: pf.platform, Ranks: 32, Cap: pf.cap, Policy: audit, Seed: 3, Faults: flt})
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run(trace)
					if err != nil {
						t.Fatalf("%s: %v", audit.label, err)
					}
					audit.check(s)
					if len(s.queue) != 0 || len(s.prio) != 0 {
						t.Fatalf("%s: %d/%d entries left queued after the run", audit.label, len(s.queue), len(s.prio))
					}
					if audit.passes < len(trace) {
						t.Fatalf("%s: only %d passes audited", audit.label, audit.passes)
					}
					if flt != nil && res.Restarts == 0 {
						t.Fatalf("%s: churn plan never requeued a job", audit.label)
					}
				}
			}
		}
	}
}

// The admissibility floor is a necessary condition only: whenever the
// unfiltered grid walk (blockStage's replay) finds a feasible point,
// Best — floor included — must find one too, and vice versa. Random
// free-rank and budget states, fresh and restarted jobs (scaled
// predTp), under a cap timeline whose dip narrows the budget.
func TestFloorNeverRejectsAnAdmissibleJob(t *testing.T) {
	plan, err := capplan.ParsePlan("0:2400,2:1500,4:2400")
	if err != nil {
		t.Fatal(err)
	}
	for _, platform := range []machine.Platform{
		machine.Homogeneous(machine.SystemG()),
		mustPlatform(t, "systemg:16,dori:16"),
	} {
		s, err := New(Config{
			Platform: platform,
			Ranks:    32,
			Plan:     plan,
			Policy:   EEMax(),
			Faults:   mustFaultPlan(t, "retries=3,ckpt=0.1,restart=0.05"),
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 9})
		trace = append(trace, Job{ID: 100, Vector: app.EP(), N: 1e7, MinWidth: 3, MaxWidth: 12})
		floored, admitted := 0, 0
		for i, j := range trace {
			e := &entry{job: j, res: JobResult{Job: j, State: Queued}}
			if i%3 == 0 {
				e.saved, e.res.Restarts = 0.4, 1
			}
			for trial := 0; trial < 200; trial++ {
				ctx := &AdmitContext{s: s, now: units.Seconds(rng.Float64() * 5), free: make([]int, len(s.pools))}
				ctx.ctrl = s.controlCap(ctx.now)
				for pi := range ctx.free {
					ctx.free[pi] = rng.Intn(s.pools[pi].size + 1)
				}
				ctx.headroom = units.Watts(1 + rng.Float64()*1200)
				ok := ctx.Best(e, ctx.headroom) != nil
				stage := ctx.blockStage(e)
				if feasible := stage == stageFeasible; ok != feasible {
					t.Fatalf("job %d free=%v budget=%v now=%v: Best=%t but the unfiltered walk ends at stage %d",
						j.ID, ctx.free, ctx.headroom, ctx.now, ok, stage)
				}
				if ok {
					admitted++
				} else if s.belowFloor(e, ctx.free, ctx.headroom) {
					floored++
				}
			}
		}
		if floored == 0 || admitted == 0 {
			t.Fatalf("%s: states too one-sided to test the floor (%d floored, %d admitted)", platform, floored, admitted)
		}
	}
}

// Queue order is insertion order: a job killed by a rank failure
// re-enters at the tail, behind jobs that arrived after it but were
// already waiting — it does not reclaim the head its early arrival time
// would suggest.
func TestRequeuedJobWaitsBehindEarlierWaiters(t *testing.T) {
	r := narrowRuntime(t, 4e6)
	wide := func(id int, arrival units.Seconds) Job {
		return Job{ID: id, Vector: app.EP(), N: 8 * 4e6, MinWidth: 8, MaxWidth: 8, Arrival: arrival}
	}
	trace := []Job{wide(0, 0), wide(1, r/10), wide(2, r/5)}
	for _, pol := range []Policy{FIFO(), Backfill(FIFO()), Backfill(EEMax())} {
		s, err := New(Config{
			Platform: machine.Homogeneous(testSpec()),
			Ranks:    8,
			Cap:      2000,
			Policy:   pol,
			Faults:   mustFaultPlan(t, fmt.Sprintf("fail=0@%g,repair=0@%g,retries=3", float64(r/2), float64(r/2+r/20))),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 3 || res.Jobs[0].Restarts != 1 {
			t.Fatalf("%s: %d done, job 0 restarted %d times; want 3 done after one kill", pol.Name(), res.Completed, res.Jobs[0].Restarts)
		}
		if !(res.Jobs[1].Start < res.Jobs[2].Start && res.Jobs[2].Start < res.Jobs[0].Start) {
			t.Fatalf("%s: restart order job1@%v job2@%v job0@%v; the requeued job 0 must start last",
				pol.Name(), res.Jobs[1].Start, res.Jobs[2].Start, res.Jobs[0].Start)
		}
	}
}

// heldScheduler builds a 64-rank scheduler with all but free ranks held
// by one running job.
func heldScheduler(tb testing.TB, free int) *Scheduler {
	tb.Helper()
	s, err := New(Config{Platform: machine.Homogeneous(machine.SystemG()), Ranks: 64, Cap: 2500, Policy: Backfill(EEMax())})
	if err != nil {
		tb.Fatal(err)
	}
	holder := epJob(-1, 64-free)
	he := &entry{job: holder, res: JobResult{Job: holder, State: Running}}
	prof, _ := s.priced(he, 0, 64-free)
	if prof == nil {
		tb.Fatal("the holder does not price")
	}
	ps := &s.pools[0]
	ranks := append([]int(nil), ps.free[free:]...)
	ps.free = ps.free[:free]
	s.running = []*runningJob{{e: he, ranks: ranks, prof: prof}}
	return s
}

// queueJobs files the jobs as arrived and waiting.
func queueJobs(s *Scheduler, jobs []Job) {
	for _, j := range jobs {
		e := &entry{job: j, res: JobResult{Job: j, State: Queued}}
		s.entries[j.ID] = e
		s.enqueue(e)
	}
}

// queueBlocked queues the jobs and runs one admission pass, which prices
// every job it searches and must start none.
func queueBlocked(tb testing.TB, s *Scheduler, jobs []Job) {
	tb.Helper()
	queueJobs(s, jobs)
	if s.admitPass(false) != 0 {
		tb.Fatal("a job started on a blocked cluster")
	}
}

// blockedScheduler builds a scheduler whose every rank is held by one
// running job, with depth trace jobs queued behind it: every admission
// pass walks the whole queue for reservations and starts nothing.
func blockedScheduler(tb testing.TB, depth int) *Scheduler {
	tb.Helper()
	s := heldScheduler(tb, 0)
	queueBlocked(tb, s, SyntheticTrace(TraceConfig{Jobs: depth, Seed: 1}))
	return s
}

// A blocked pass allocates for its context and the head's shadow walk,
// never per queued job: the count is independent of queue depth.
func TestBlockedPassAllocationsIndependentOfDepth(t *testing.T) {
	allocs := func(depth int) float64 {
		s := blockedScheduler(t, depth)
		return testing.AllocsPerRun(20, func() { s.admitPass(false) })
	}
	shallow, deep := allocs(16), allocs(1024)
	if shallow != deep {
		t.Fatalf("a blocked pass allocates %v times at depth 16 but %v at depth 1024", shallow, deep)
	}
}

// BenchmarkAdmitPass prices one blocked admission pass at queue depth d
// — the per-layer number behind the sched_burst workload.
func BenchmarkAdmitPass(b *testing.B) {
	for _, depth := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			s := blockedScheduler(b, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.admitPass(false)
			}
		})
	}
}

// referencePermitted is the parent commit's reservation gate, on a built
// candidate: referenceSearch's, kept so the oracle shares no gate code
// with the search it checks.
func referencePermitted(rsvs []*reservation, e *entry, now units.Seconds, c Candidate) bool {
	for _, r := range rsvs {
		if r == nil || e == r.e {
			continue
		}
		if now+c.Tp <= r.at || now >= r.at+r.dur {
			continue
		}
		if !(c.P <= r.extraRanks[c.Pool] && c.Cost <= r.extraWatts) {
			return false
		}
	}
	return true
}

// TestEEBetterOrder pins the admission comparator's key order: EE in
// half-percent bins, then lower Ep, then lower Tp, then lower frequency
// and smaller p. Each case is checked in both argument orders, so the
// order is strict and a full tie picks neither.
func TestEEBetterOrder(t *testing.T) {
	pt := func(ee float64, ep units.Joules, tp units.Seconds, f units.Hertz, p int) analysis.Point {
		return analysis.Point{P: p, Freq: f, Prediction: core.Prediction{EE: ee, Ep: ep, Tp: tp}}
	}
	const lo, hi = 2.0 * units.GHz, 2.8 * units.GHz
	for _, tc := range []struct {
		name string
		a, b analysis.Point // a must win, or tie when same is set
		same bool
	}{
		{"higher EE bin wins over energy and time", pt(0.80, 900, 90, hi, 8), pt(0.70, 100, 10, lo, 1), false},
		{"within one bin the lower Ep wins", pt(0.8001, 100, 50, hi, 8), pt(0.8020, 110, 10, lo, 1), false},
		{"equal bin and Ep: the lower Tp wins", pt(0.80, 100, 10, hi, 8), pt(0.80, 100, 20, lo, 1), false},
		{"equal prediction: the lower frequency wins", pt(0.80, 100, 10, lo, 8), pt(0.80, 100, 10, hi, 1), false},
		{"equal prediction and f: the smaller p wins", pt(0.80, 100, 10, lo, 4), pt(0.80, 100, 10, lo, 8), false},
		{"identical points tie", pt(0.80, 100, 10, lo, 4), pt(0.80, 100, 10, lo, 4), true},
	} {
		if got := eeBetter(tc.a, tc.b); got == tc.same {
			t.Errorf("%s: eeBetter(a, b) = %v", tc.name, got)
		}
		if eeBetter(tc.b, tc.a) {
			t.Errorf("%s: eeBetter(b, a) = true", tc.name)
		}
	}
}

// referenceSearch is the parent commit's search body: every row looked
// up per width (priced), FastestTp rescanned per width, the Candidate
// built before the reservation gate and passed by value. Test-only — the
// oracle TestBestMatchesReferenceSearch holds the entry-grid search to.
func (c *AdmitContext) referenceSearch(e *entry, refTp units.Seconds, budget units.Watts) (Candidate, int) {
	s, j, now := c.s, &e.job, c.now
	maxTp := units.Seconds(float64(refTp) * PerfSlack(s.cfg.PerfSlack))
	var best, bestDL Candidate
	stage, foundDL := stageNone, false
	var wbuf [maxWidths]int
	for pi := range s.pools {
		ps := &s.pools[pi]
		for _, p := range j.Widths(wbuf[:0], c.free[pi]) {
			stage = max(stage, stageWidth)
			row, _ := s.priced(e, pi, p)
			if row == nil {
				return Candidate{}, stageModel
			}
			if !c.relaxed && row.FastestTp() > maxTp {
				continue
			}
			stage = max(stage, stageSlack)
			for fi := range ps.ladder {
				cost := s.marginalCost(pi, row.Draw[fi], p)
				if cost > budget {
					continue
				}
				stage = max(stage, stageBudget)
				tp := s.predTp(e, row, fi)
				if cost > s.narrowToLifetime(c.ctrl, now, budget, tp) {
					continue
				}
				stage = max(stage, stagePlan)
				pred := row.Pred[fi]
				pred.Tp = tp
				cand := Candidate{
					Pool:  pi,
					Point: analysis.Point{Pool: ps.name, P: p, Freq: ps.ladder[fi], N: j.N, Prediction: pred},
					Cost:  cost,
					row:   row,
				}
				if !referencePermitted(c.rsvs, e, now, cand) {
					continue
				}
				if stage < stageFeasible || eeBetter(cand.Point, best.Point) {
					best, stage = cand, stageFeasible
				}
				if j.Deadline > 0 && now+cand.Tp <= j.Arrival+j.Deadline {
					if !foundDL || eeBetter(cand.Point, bestDL.Point) {
						bestDL, foundDL = cand, true
					}
				}
			}
		}
	}
	if foundDL {
		return bestDL, stageFeasible
	}
	return best, stage
}

// The differential oracle for the entry-grid search: on random cluster
// states — free ranks (non-power-of-two and zero included), budgets and
// clock under a dipping cap plan, fresh and restarted jobs, a job with a
// non-power-of-two width range, strict and relaxed passes, zero to two
// reservations — search must reach the stage and pick the very point
// (same grid row) the parent's search does, Best must agree with the
// parent's Best, and a deadline must redirect both alike.
func TestBestMatchesReferenceSearch(t *testing.T) {
	plan, err := capplan.ParsePlan("0:2400,2:1500,4:2400")
	if err != nil {
		t.Fatal(err)
	}
	for _, platform := range []machine.Platform{
		machine.Homogeneous(machine.SystemG()),
		mustPlatform(t, "systemg:16,dori:16"),
	} {
		s, err := New(Config{
			Platform: platform,
			Ranks:    32,
			Plan:     plan,
			Policy:   EEMax(),
			Faults:   mustFaultPlan(t, "retries=3,ckpt=0.1,restart=0.05"),
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		trace := SyntheticTrace(TraceConfig{Jobs: 24, Seed: 9})
		trace = append(trace, Job{ID: 100, Vector: app.EP(), N: 1e7, MinWidth: 3, MaxWidth: 12})
		other := &entry{job: epJob(-1, 8)}
		feasible, gated, redirected := 0, 0, 0
		for i, j := range trace {
			e := &entry{job: j, res: JobResult{Job: j, State: Queued}}
			if i%3 == 0 {
				e.saved, e.res.Restarts = 0.4, 1
			}
			for trial := 0; trial < 200; trial++ {
				ctx := &AdmitContext{s: s, now: units.Seconds(rng.Float64() * 5), free: make([]int, len(s.pools)), relaxed: trial%4 == 3}
				ctx.ctrl = s.controlCap(ctx.now)
				for pi := range ctx.free {
					ctx.free[pi] = rng.Intn(s.pools[pi].size + 1)
				}
				if trial%16 == 0 {
					clear(ctx.free)
				}
				ctx.headroom = units.Watts(1 + rng.Float64()*1200)
				for n := rng.Intn(3); n > 0; n-- {
					rsv := &reservation{
						e:          other,
						at:         ctx.now + units.Seconds(rng.Float64()*3),
						dur:        units.Seconds(rng.Float64() * 2),
						extraWatts: units.Watts(rng.Float64() * 600),
					}
					if rng.Intn(8) == 0 {
						rsv.e = e // the job's own promise exempts it
					}
					for pi := range s.pools {
						rsv.extraRanks = append(rsv.extraRanks, rng.Intn(s.pools[pi].size+1))
					}
					ctx.rsvs = append(ctx.rsvs, rsv)
				}
				refTp, ok := s.referenceTp(e)
				if !ok {
					t.Fatalf("job %d does not price", j.ID)
				}
				if j.Deadline > 0 {
					// A deadline some of the grid meets and some misses.
					e.job.Deadline = ctx.now - j.Arrival + units.Seconds(float64(refTp)*(0.9+2*rng.Float64()))
				}
				label := fmt.Sprintf("job %d free=%v budget=%v now=%v relaxed=%t rsvs=%d", j.ID, ctx.free, ctx.headroom, ctx.now, ctx.relaxed, len(ctx.rsvs))

				want, wantStage := ctx.referenceSearch(e, refTp, ctx.headroom)
				got, gotStage := ctx.search(e, refTp, ctx.headroom)
				if gotStage != wantStage || (got != nil) != (wantStage == stageFeasible) {
					t.Fatalf("%s: search reached stage %d (candidate %t), the reference stage %d", label, gotStage, got != nil, wantStage)
				}
				// == on the whole Candidate: pool, p, f, cost, Tp, EE, every
				// other predicted figure and the row pointer.
				if got != nil && *got != want {
					t.Fatalf("%s: search picked %+v, the reference %+v", label, *got, want)
				}
				// The parent's Best: the floor, then the search.
				wantBest := ctx.relaxed || !s.belowFloor(e, ctx.free, ctx.headroom)
				wantBest = wantBest && wantStage == stageFeasible
				if best := ctx.Best(e, ctx.headroom); (best != nil) != wantBest || (best != nil && *best != want) {
					t.Fatalf("%s: Best admits %t, the reference %t", label, best != nil, wantBest)
				}
				switch {
				case wantStage == stageFeasible:
					feasible++
				case wantStage == stagePlan:
					gated++
				}
				if j.Deadline > 0 && wantStage == stageFeasible {
					dl := e.job.Deadline
					e.job.Deadline = 0
					if plain, _ := ctx.referenceSearch(e, refTp, ctx.headroom); plain != want {
						redirected++
					}
					e.job.Deadline = dl
				}
			}
		}
		if feasible == 0 || gated == 0 || redirected == 0 {
			t.Fatalf("%s: states too one-sided (%d feasible, %d died at the reservation gate, %d redirected by a deadline)",
				platform, feasible, gated, redirected)
		}
	}
}

// s.entries keeps every entry until collect, and the entry owns its
// rows, so an entry that kept its grid past its job's exit would pin
// every row the run ever priced: whichever way a job leaves — done,
// rejected at arrival, rejected as infeasible, lost to a failure — its
// entry holds no pricing afterwards, and pricing cost the parent's
// evaluations with no memo traffic.
func TestEntryReleasesRowsWhenTheJobLeaves(t *testing.T) {
	const parentMisses = 49
	r := narrowRuntime(t, 4e6)
	trace := SyntheticTrace(TraceConfig{Jobs: 12, Seed: 5, MaxWidth: 8})
	trace = append(trace,
		Job{ID: 100, Vector: app.EP(), N: 1e7, MinWidth: 16, MaxWidth: 16},                                    // wider than the cluster
		Job{ID: 101, Vector: app.EP(), N: 8 * 4e6, MinWidth: 8, MaxWidth: 8, Arrival: trace[11].Arrival + 40}, // killed on an idle cluster
	)
	s, err := New(Config{
		Platform: machine.Homogeneous(testSpec()), Ranks: 8, Cap: 2000, Policy: Backfill(EEMax()), Seed: 5,
		Faults: mustFaultPlan(t, fmt.Sprintf("fail=0@%g,retries=0", float64(trace[13].Arrival+r/2))),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Rejected == 0 || res.JobsLost == 0 {
		t.Fatalf("run has %d done, %d rejected, %d lost; want every exit exercised", res.Completed, res.Rejected, res.JobsLost)
	}
	for id, e := range s.entries {
		if e.grid != nil || e.floor != nil {
			t.Errorf("job %d (%s) still holds %d rows and a %d-pool floor", id, e.res.State, len(e.grid), len(e.floor))
		}
	}
	if st := s.cacheStats(); st != (opcache.Stats{Misses: parentMisses}) {
		t.Errorf("op-cache counters %+v; want the parent's %d evaluations, no hit and no forget", st, parentMisses)
	}
}

// A requeue is not an exit: a killed job waits for its repair with its
// grid intact and restarts from the very row it was first admitted from,
// so the kill costs no pricing — as many evaluations as the
// same job run fault-free, and no hit.
func TestRequeuedJobKeepsItsRows(t *testing.T) {
	r := narrowRuntime(t, 4e6)
	job := Job{ID: 300, Vector: app.EP(), N: 8 * 4e6, MinWidth: 8, MaxWidth: 8}
	run := func(plan string, probe func(s *Scheduler)) (Result, uint64) {
		s, err := New(Config{Platform: machine.Homogeneous(testSpec()), Ranks: 8, Cap: 2000, Policy: Backfill(EEMax()), Faults: mustFaultPlan(t, plan)})
		if err != nil {
			t.Fatal(err)
		}
		if probe != nil {
			probe(s)
		}
		res, err := s.Run([]Job{job})
		if err != nil {
			t.Fatal(err)
		}
		st := s.cacheStats()
		if res.Completed != 1 || st.Hits != 0 {
			t.Fatalf("plan %q: %d done, %d op-cache hits; want the job done and its rows priced once", plan, res.Completed, st.Hits)
		}
		return res, st.Misses
	}
	_, clean := run("retries=3", nil)
	var held *pricedRow
	res, killed := run(fmt.Sprintf("fail=0@%g,repair=0@%g,retries=3", float64(r/2), float64(r/2+r/10)), func(s *Scheduler) {
		k := s.cl.Kernel()
		k.Schedule(r/2+r/20, func() { // killed, waiting for the repair
			if e := s.entries[job.ID]; e.res.State == Queued && e.res.Restarts == 1 && len(e.grid) > 0 {
				held = &e.grid[0]
			}
		})
		k.Schedule(r/2+r/5, func() { // running again
			if held == nil || len(s.running) != 1 || s.running[0].prof != held.row {
				t.Errorf("the restarted attempt does not run from the row its entry held while queued")
			}
		})
	})
	if res.Restarts != 1 || held == nil {
		t.Fatalf("restarts %d, grid seen while requeued %t; want one kill observed", res.Restarts, held != nil)
	}
	if killed != clean {
		t.Fatalf("the killed run evaluated %d rows, the fault-free run %d: the restart re-priced the job", killed, clean)
	}
}

// What the burst speed-up rests on: a search that ends in "wait" — no
// affordable point, or every affordable point refused by a reservation —
// and a refused explicit point allocate nothing, for a job whose ID an
// interface would box (≥ 256).
func TestBlockedBestDoesNotAllocate(t *testing.T) {
	s := heldScheduler(t, 5) // hi = 5: a width the floor does not cover, so Best walks the grid
	j := epJob(1000, 6)      // five of its six ranks keep it within the slack
	e := &entry{job: j, res: JobResult{Job: j, State: Queued}}
	wall := &reservation{e: &entry{}, at: 0, dur: 1e9, extraRanks: []int{0}}
	for _, tc := range []struct {
		label    string
		headroom units.Watts
		rsvs     []*reservation
		stage    int
	}{
		{"no affordable point", 1, nil, stageSlack},
		{"reservation gate", 1000, []*reservation{wall}, stagePlan},
	} {
		ctx := s.liveContext(false)
		ctx.headroom, ctx.rsvs = tc.headroom, tc.rsvs
		if ctx.Best(e, ctx.headroom) != nil { // prices the job
			t.Fatalf("%s: the job is not blocked", tc.label)
		}
		if stage := ctx.blockStage(e); stage != tc.stage {
			t.Fatalf("%s: blocked at stage %d, want %d", tc.label, stage, tc.stage)
		}
		if n := testing.AllocsPerRun(100, func() { ctx.Best(e, ctx.headroom) }); n != 0 {
			t.Errorf("%s: a blocked Best allocates %v objects, want 0", tc.label, n)
		}
		if n := testing.AllocsPerRun(100, func() { ctx.At(e, 0, 4, s.pools[0].ladder[0]) }); n != 0 {
			t.Errorf("%s: a refused At allocates %v objects, want 0", tc.label, n)
		}
		if _, ok := ctx.At(e, 0, 4, s.pools[0].ladder[0]); ok {
			t.Fatalf("%s: At admits the blocked job", tc.label)
		}
	}
}

// yieldCount runs the wrapped policy and then counts what the admission
// iterators still yield.
type yieldCount struct {
	Policy
	free, queued, prioritized int
}

func (y *yieldCount) Admit(ctx *AdmitContext) {
	y.Policy.Admit(ctx)
	y.free = ctx.freeRanks()
	for range ctx.Queued() {
		y.queued++
	}
	for range ctx.Prioritized() {
		y.prioritized++
	}
}

// With no free rank in any pool nothing can start, so the admission
// iterators yield nothing — on a cluster that is full when the pass
// opens, and mid-pass once an admission has taken the last ranks — and
// the jobs behind are not even priced.
func TestAdmissionStopsWhenNoRankIsFree(t *testing.T) {
	for _, inner := range []func() Policy{FIFO, EEMax, FairShare} {
		for _, free := range []int{0, 16} {
			y := &yieldCount{Policy: inner()}
			s := heldScheduler(t, free)
			s.cfg.Policy = y
			// First in either order, the rigid job takes every free rank.
			queueJobs(s, append([]Job{{ID: 500, Vector: app.EP(), N: 1e7, MinWidth: 16, MaxWidth: 16, Priority: 9}},
				SyntheticTrace(TraceConfig{Jobs: 8, Seed: 1})...))
			label := fmt.Sprintf("%s, %d ranks free", y.Policy.Name(), free)
			if got, want := s.admitPass(false), min(free, 1); got != want {
				t.Fatalf("%s: the pass started %d jobs, want %d", label, got, want)
			}
			if y.free != 0 || y.queued != 0 || y.prioritized != 0 {
				t.Errorf("%s: with %d ranks left Queued yields %d jobs and Prioritized %d, want none",
					label, y.free, y.queued, y.prioritized)
			}
			for _, e := range s.queue {
				if e.refTp != 0 || e.grid != nil {
					t.Errorf("%s: job %d was priced behind a full cluster", label, e.job.ID)
				}
			}
		}
	}
}

// The backfill wrapper walks the queue for reservations, not admissions:
// on a full cluster — where the admission iterators yield nothing — the
// head, and with Reservations K the next blocked jobs, still get their
// promises, the very ones the parent commit computes (the literals).
func TestBackfillStillReservesOnAFullCluster(t *testing.T) {
	type promise struct {
		id         int
		at, dur    units.Seconds
		pool, p    int
		cost       units.Watts
		extraRanks int
		extraWatts units.Watts
	}
	parent := []promise{
		{0, 0.006974508867, 2.7471381416590717, 0, 1, 16.79636781953454, 63, 927.0893464661798},
		{1, 0.006974508867, 0.0029753607099375005, 0, 32, 214.6092142539494, 31, 712.4801322122304},
	}
	for k := 1; k <= 2; k++ {
		s := heldScheduler(t, 0)
		s.cfg.Policy = BackfillN(EEMax(), k)
		queueBlocked(t, s, SyntheticTrace(TraceConfig{Jobs: 6, Seed: 1}))
		if len(s.rsvs) != k {
			t.Fatalf("k=%d: %d reservations on a full cluster, want %d", k, len(s.rsvs), k)
		}
		for i, r := range s.rsvs {
			got := promise{r.e.job.ID, r.at, r.dur, r.pool, r.p, r.cost, r.extraRanks[0], r.extraWatts}
			if got != parent[i] {
				t.Errorf("k=%d: reservation %d is %+v, the parent's %+v", k, i, got, parent[i])
			}
		}
	}
}

// BenchmarkAdmitPassBlockedQueue times one admission pass mid-burst: 350
// jobs queued behind a rigid full-width head whose reservation starts now
// and spares no rank, so nothing backfills. With no rank free the pass is
// the backfill wrapper's head attempt and shadow walk; with five free it
// also searches every queued job up to the reservation gate.
func BenchmarkAdmitPassBlockedQueue(b *testing.B) {
	for _, free := range []int{0, 5} {
		b.Run(fmt.Sprintf("free%d", free), func(b *testing.B) {
			s := heldScheduler(b, free)
			s.running[0].progress = 1 // the holder ends now, and the head's reservation begins
			head := Job{ID: -2, Vector: app.EP(), N: 1e7, MinWidth: 64, MaxWidth: 64}
			queueBlocked(b, s, append([]Job{head}, SyntheticTrace(TraceConfig{Jobs: 350, Seed: 1})...))
			if len(s.rsvs) != 1 {
				b.Fatalf("%d reservations held, want the head's", len(s.rsvs))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.admitPass(false)
			}
		})
	}
}
