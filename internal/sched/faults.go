package sched

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/faults"
	"repro/internal/opcache"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// This file is the scheduler half of deterministic fault injection
// (internal/faults): rank failures and repairs threaded through the
// event kernel, mid-phase job kills with checkpoint/restart accounting,
// and the graceful-degradation rules that keep every surviving decision
// deterministic and under the cap.
//
// The contract with the rest of the scheduler:
//
//   - Determinism. All stochastic draws come from one explicit-source
//     RNG seeded (Seed ^ faultSeedMix), consumed in kernel event order
//     — rank order at every shared instant — so the same (seed, plan)
//     pair reproduces the same fault schedule bit for bit.
//   - Byte-identity without faults. A nil Config.Faults is normalised
//     to the empty plan at New, under which no hook finds work (nothing
//     scripted, no rates to draw from, no checkpoint interval);
//     TestEmptyFaultPlanMatchesNil and the fault-free goldens pin it.
//     What is reported stays keyed on the caller's config: the fault
//     metrics are registered only when a plan was given.
//   - Zero violations. Faults never touch the budget: admission, the
//     governor and the violation audit price against the one cap
//     timeline (Scheduler.capPlan), so the zero-violation argument is
//     unchanged. A mid-run cap clamp is a window of that timeline.
//   - Liveness. A failure either requeues its jobs (retry cap willing)
//     or loses them; a queued job that can never run on the surviving
//     capacity is finalised rather than parked forever, while capacity
//     a scripted or pending repair will restore counts as future
//     capacity (feasibleEver), so no job waits on a rank that is never
//     coming back.

// faultSeedMix decorrelates the fault RNG from every other consumer of
// Config.Seed (cluster noise, trace generation) without adding a knob.
const faultSeedMix = 0x5f4a7c15

// faultState is the live fault-injection bookkeeping of one run.
type faultState struct {
	plan *faults.Plan
	rng  *rand.Rand

	dead          []bool          // per rank: currently failed
	deadSince     []units.Seconds // per rank: when the current failure began
	repairPending []bool          // per rank: an MTTR repair event is armed
	// scriptedRepairs lists each rank's scripted repair times, so the
	// feasibility probe can tell "down until the repair lands" from
	// "gone for good".
	scriptedRepairs [][]units.Seconds
	deadByPool      []int // per pool: currently failed ranks

	downTime units.Seconds // closed failure intervals, summed
}

// newFaultState sizes the bookkeeping for the run under the normalised
// plan (Config.Faults, or the empty plan). Called from New after the
// pools are provisioned.
func newFaultState(s *Scheduler, plan *faults.Plan) *faultState {
	n := s.cfg.Ranks
	f := &faultState{
		plan:            plan,
		rng:             rand.New(rand.NewSource(s.cfg.Seed ^ faultSeedMix)),
		dead:            make([]bool, n),
		deadSince:       make([]units.Seconds, n),
		repairPending:   make([]bool, n),
		scriptedRepairs: make([][]units.Seconds, n),
		deadByPool:      make([]int, len(s.pools)),
	}
	for _, ev := range plan.Scripted {
		if ev.Repair {
			f.scriptedRepairs[ev.Rank] = append(f.scriptedRepairs[ev.Rank], ev.T)
		}
	}
	return f
}

// repairComing reports whether a repair for rank r is still ahead of
// now: an armed MTTR event, or a scripted repair not yet fired.
func (f *faultState) repairComing(r int, now units.Seconds) bool {
	if f.repairPending[r] {
		return true
	}
	for _, t := range f.scriptedRepairs[r] {
		if t >= now {
			return true
		}
	}
	return false
}

// repairAhead reports whether any currently dead rank has a repair
// still coming — the fault-side reason an idle, blocked queue should
// park instead of finalising.
func (s *Scheduler) repairAhead(now units.Seconds) bool {
	for r := range s.flt.dead {
		if s.flt.dead[r] && s.flt.repairComing(r, now) {
			return true
		}
	}
	return false
}

// scheduleFaults arms every fault event at Run: scripted fail/repair
// events verbatim and one MTBF failure chain per rank of every pool with
// a stochastic rate. Chains guard on s.remaining so a drained trace
// stops drawing.
func (s *Scheduler) scheduleFaults() {
	k, plan := s.cl.Kernel(), s.flt.plan
	for _, ev := range plan.Scripted {
		k.Schedule(ev.T, func() {
			if s.remaining <= 0 {
				return
			}
			if ev.Repair {
				s.repairRank(ev.Rank)
			} else {
				s.failRank(ev.Rank, "scripted")
			}
		})
	}
	for r := 0; r < s.cl.Ranks(); r++ {
		rates, ok := plan.RatesFor(s.pools[s.cl.PoolOf(r)].name)
		if !ok {
			continue
		}
		s.armFailure(r, rates)
	}
}

// armFailure draws the rank's next failure from its pool's MTBF and
// schedules it. A draw landing while the rank is already down (a
// scripted failure got there first) is redrawn rather than double-
// counted, keeping the chain alive either way.
func (s *Scheduler) armFailure(r int, rates faults.PoolRates) {
	d := units.Seconds(s.flt.rng.ExpFloat64() * float64(rates.MTBF))
	s.cl.Kernel().After(d, func() {
		if s.remaining <= 0 {
			return
		}
		if s.flt.dead[r] {
			s.armFailure(r, rates)
			return
		}
		// The repair must already read as pending when failRank reruns
		// admission, or that pass sees the rank as permanently lost and
		// finalises width-rigid jobs an MTTR repair would have saved.
		s.flt.repairPending[r] = true
		s.failRank(r, "mtbf")
		s.armRepair(r, rates)
	})
}

// armRepair draws the rank's repair from its pool's MTTR. If a scripted
// repair resurrected the rank first, the event only re-arms the failure
// chain; the chain is always re-armed, so a pool's failure process
// never dies out mid-run.
func (s *Scheduler) armRepair(r int, rates faults.PoolRates) {
	s.flt.repairPending[r] = true
	d := units.Seconds(s.flt.rng.ExpFloat64() * float64(rates.MTTR))
	s.cl.Kernel().After(d, func() {
		if s.remaining <= 0 {
			return
		}
		s.flt.repairPending[r] = false
		if s.flt.dead[r] {
			s.repairRank(r)
		}
		s.armFailure(r, rates)
	})
}

// failRank takes rank r down in kernel context: fence it off the free
// list (or kill the job running on it), then rerun admission so the
// policy sees the shrunken cluster and backfill re-derives its
// reservations from the surviving capacity.
func (s *Scheduler) failRank(r int, source string) {
	f := s.flt
	if f.dead[r] {
		return // scripted duplicate or already down
	}
	now := s.cl.Kernel().Now()
	f.dead[r] = true
	f.deadSince[r] = now
	pool := s.cl.PoolOf(r)
	f.deadByPool[pool]++
	s.res.Failures++
	if s.tel != nil {
		s.tel.emitFail(r, s.pools[pool].name, source)
	}
	if rj := s.owner[r]; rj != nil {
		s.killJob(rj)
	} else {
		s.removeFree(pool, r)
	}
	s.tryAdmit()
}

// repairRank brings rank r back: close its downtime interval, return it
// to the free list, and give the queue a shot at the restored capacity.
func (s *Scheduler) repairRank(r int) {
	f := s.flt
	if !f.dead[r] {
		return // scripted repair of a rank that never died (or already repaired)
	}
	now := s.cl.Kernel().Now()
	down := now - f.deadSince[r]
	f.dead[r] = false
	f.downTime += down
	pool := s.cl.PoolOf(r)
	f.deadByPool[pool]--
	s.res.Repairs++
	s.insertFree(pool, r)
	if s.tel != nil {
		s.tel.emitRepair(r, s.pools[pool].name, down)
	}
	s.tryAdmit()
}

// killJob aborts a running job mid-phase because one of its ranks died:
// price the work it loses, take it off the cluster (vacate cancels its
// pending kernel events and writes off the in-flight ops), and either
// requeue the job (checkpoint intact) or declare it permanently lost
// once the retry cap is spent.
func (s *Scheduler) killJob(rj *runningJob) {
	now := s.cl.Kernel().Now()
	e := rj.e
	// Work since the last checkpoint is re-executed on restart; price it
	// at the admitted operating point.
	var lost units.Seconds
	if frac := s.absProgress(rj, now); frac > rj.lastCkpt {
		lost = rj.prof.PartialTp(rj.admIdx, frac-rj.lastCkpt)
		e.res.LostWork += lost
	}
	s.vacate(rj, true)

	e.res.Energy += rj.energy
	e.res.WastedEnergy += rj.energy
	e.saved = rj.lastCkpt
	s.res.Kills++

	outcome := "requeue"
	if e.res.Restarts >= s.flt.plan.MaxRetries {
		outcome = "lost"
	}
	if s.tel != nil {
		s.tel.emitKill(rj, lost, rj.energy, outcome)
	}
	s.spareJobs = append(s.spareJobs, rj) // its last reader is done
	if outcome == "lost" {
		s.lose(e, fmt.Sprintf("rank failed and retry cap %d is exhausted", s.flt.plan.MaxRetries))
		return
	}
	e.res.Restarts++
	s.prune(true) // a slot left from its last wait would revive with the state
	e.res.State = Queued
	e.res.Backfilled = false
	s.enqueue(e)
}

// lose finalises a job as permanently lost to failures.
func (s *Scheduler) lose(e *entry, reason string) {
	e.res.Reason = reason
	s.leave(e, Lost)
	if s.tel != nil {
		s.tel.lost.Inc()
	}
}

// finalize ends a queued job that can never run: Rejected on the
// no-fault paths (byte-identical to the historical behaviour), Lost
// when the job already ran and was killed — it consumed cluster time
// and energy, which "rejected" would misreport.
func (s *Scheduler) finalize(e *entry, reason string) {
	s.queued--
	if e.res.Restarts > 0 || e.saved > 0 {
		if s.tel != nil {
			s.tel.emitDrop(telemetry.EvKill, e, reason)
		}
		s.lose(e, reason)
		return
	}
	s.reject(e, reason)
}

// removeFree fences a dead idle rank off its pool's free list. The
// rank must be there: every provisioned rank is either owned by a
// running job or free.
func (s *Scheduler) removeFree(pool, r int) {
	ps := &s.pools[pool]
	i := sort.SearchInts(ps.free, r)
	if i >= len(ps.free) || ps.free[i] != r {
		panic(fmt.Sprintf("sched: rank %d is neither owned nor free", r))
	}
	ps.free = append(ps.free[:i], ps.free[i+1:]...)
}

// insertFree returns a repaired rank to its pool's free list, keeping
// the list sorted ascending (rank sets are taken as prefixes of it).
func (s *Scheduler) insertFree(pool, r int) {
	ps := &s.pools[pool]
	i := sort.SearchInts(ps.free, r)
	ps.free = append(ps.free, 0)
	copy(ps.free[i+1:], ps.free[i:])
	ps.free[i] = r
}

// scaledTp is a running job's model runtime at ladder index idx, with
// the attempt's restart work-scale applied: a resumed attempt executes
// only its unfinished fraction plus the restart surcharge, so every
// shadow-clock consumer (backfill reservations, governor repricing,
// checkpoint progress) must stretch by the same factor the issued
// slices shrank by. 0 or 1 means unscaled — the fault-free value.
func scaledTp(rj *runningJob, idx int) units.Seconds {
	tp := rj.prof.Pred[idx].Tp
	if rj.workScale != 0 && rj.workScale != 1 {
		tp = units.Seconds(rj.workScale * float64(tp))
	}
	return tp
}

// absProgress maps a running attempt's position onto the whole job:
// the attempt covers [base, 1] of the job, so its fractional progress
// interpolates that interval. This is what checkpoints save and kills
// charge against.
func (s *Scheduler) absProgress(rj *runningJob, now units.Seconds) float64 {
	abs := rj.base + rj.fracAt(now)*(1-rj.base)
	if abs < rj.base {
		abs = rj.base
	}
	if abs > 1 {
		abs = 1
	}
	return abs
}

// armCheckpoint schedules the job's next periodic checkpoint, binding
// the attempt's callback on first use so re-arming allocates nothing. The
// checkpoint itself is a free snapshot — the cost model charges the
// restart side (work since the last checkpoint is re-executed, plus
// the plan's restart surcharge), matching the paper-style accounting
// where checkpoint overhead is folded into MTTR.
func (s *Scheduler) armCheckpoint(rj *runningJob) {
	every := s.flt.plan.CheckpointEvery
	if every <= 0 {
		return
	}
	if rj.ckpt == nil {
		rj.ckpt = func() {
			rj.lastCkpt = s.absProgress(rj, s.cl.Kernel().Now())
			rj.e.res.Checkpoints++
			s.res.Checkpoints++
			if s.tel != nil {
				s.tel.emitCheckpoint(rj)
			}
			s.armCheckpoint(rj)
		}
	}
	k := s.cl.Kernel()
	rj.ckptTimer = k.ScheduleTimer(k.Now()+every, rj.ckpt)
}

// predTp is the admission-side predicted runtime of job e at ladder
// index fi of row: the full model runtime, or — for a job resuming
// from a kill — its unfinished fraction plus the restart surcharge.
// Admission, backfill's shadow walk and the deadline rule all price
// restarted jobs through this one hook.
func (s *Scheduler) predTp(e *entry, row *opcache.Row, fi int) units.Seconds {
	tp := row.Pred[fi].Tp
	if e.saved == 0 && e.res.Restarts == 0 {
		return tp
	}
	return row.PartialTp(fi, 1-e.saved) + s.flt.plan.RestartCost
}
