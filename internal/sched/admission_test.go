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
	"repro/internal/faults"
	"repro/internal/machine"
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
				_, ok := ctx.Best(e, ctx.headroom, analysis.MaxEE)
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

// blockedScheduler builds a scheduler whose every rank is held by one
// running job, with depth trace jobs queued behind it: every admission
// pass prices the whole queue and starts nothing.
func blockedScheduler(tb testing.TB, depth int) *Scheduler {
	tb.Helper()
	s, err := New(Config{Platform: machine.Homogeneous(machine.SystemG()), Ranks: 64, Cap: 2500, Policy: Backfill(EEMax())})
	if err != nil {
		tb.Fatal(err)
	}
	holder := epJob(-1, 64)
	prof, err := s.pools[0].cache.Row(holder.ID, holder.Vector, holder.N, 64)
	if err != nil {
		tb.Fatal(err)
	}
	ranks := s.pools[0].free
	s.pools[0].free = nil
	s.running = []*runningJob{{e: &entry{job: holder, res: JobResult{Job: holder, State: Running}}, ranks: ranks, prof: prof}}
	for _, j := range SyntheticTrace(TraceConfig{Jobs: depth, Seed: 1}) {
		e := &entry{job: j, res: JobResult{Job: j, State: Queued}}
		s.entries[j.ID] = e
		s.enqueue(e)
	}
	if s.admitPass(false) != 0 { // prices every job once
		tb.Fatal("a job started on a full cluster")
	}
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
