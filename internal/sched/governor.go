package sched

import (
	"cmp"
	"slices"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
)

// governor is the runtime half of the scheduler: it subscribes to the
// power profiler's virtual-time samples, audits the measured cluster
// draw against the cap, and — when the policy permits DVFS — walks
// running jobs up and down their own pool's frequency ladder so the
// draw tracks the cap from below. On a heterogeneous platform each job
// retunes against the ladder of the pool hosting it (ladders differ in
// range and step); the control rules are pool-agnostic because they
// compare joules and watts, never raw frequencies.
//
// Control is model-predictive rather than purely reactive: decisions
// compare the conservative predicted draw (admission.go) against the
// cap, so an action can never itself cause a violation; the measured
// samples close the loop as the audit trail (violation counting) and as
// the trigger for emergency throttling should the prediction ever be
// overrun (e.g. under execution noise). With Config.EdgeRetune the same
// throttle/boost pass additionally runs at every scheduling edge
// (Scheduler.edgeRetune), cutting the control latency from one sampling
// period to zero.
type governor struct {
	s *Scheduler

	order []*runningJob // sorted()'s reused buffer

	// last and lastWin are where the next sampling window starts: the
	// previous sample's time and plan window (both 0 before the first);
	// after the run, last is the sampling horizon. energy is the
	// measured power integral over [0, last], folded sample by sample.
	last    units.Seconds
	lastWin int
	energy  units.Joules
}

// capEpsilon absorbs float rounding when auditing samples against the
// cap; anything beyond one part in 10⁹ is a real violation.
const capEpsilon = 1e-9

// epEpsilon is the relative margin a ladder step's predicted energy
// must beat the current point by before a boost counts it as a gain.
// Treating equality as a gain made flat ladder segments retune-churn
// forever (every sample walked the job up a step that bought nothing).
const epEpsilon = 1e-9

// onSample runs in kernel context after every recorded power sample: it
// is the run's one audit, booked into the window ledger as it samples.
func (g *governor) onSample(sm power.Sample) {
	if sm.Total > g.s.res.PeakPower {
		g.s.res.PeakPower = sm.Total
	}
	// Audit against the budget in force at the sample's own time: under
	// a cap timeline every window is judged by the cap at its end, and a
	// sample on a breakpoint belongs to the window it opens.
	i, seg := g.s.capPlan.WindowAt(sm.T)
	ws := g.s.res.Windows
	ws[i].Samples++
	if float64(sm.Total) > float64(seg.Cap)*(1+capEpsilon) {
		ws[i].Violations++
		if g.s.tel != nil {
			g.s.tel.emitViolation(sm, seg.Cap)
		}
	}
	// The sampling window (last, sm.T] drew sm.Total: each plan window it
	// overlaps gets its share pro rata, in sample order, so every Energy
	// is bit for bit the profile's integral over its window.
	for j := g.lastWin; j < len(ws) && ws[j].Start < sm.T; j++ {
		end := sm.T
		if j+1 < len(ws) {
			end = ws[j+1].Start
		}
		ws[j].Energy += sm.EnergyIn(g.last, ws[j].Start, end)
	}
	g.energy += units.Energy(sm.Total, sm.T-g.last)
	g.last, g.lastWin = sm.T, i
	if !g.s.cfg.Policy.DVFS() {
		return
	}
	var t0 int64
	if g.s.hst != nil {
		t0 = g.s.hst.Begin()
	}
	g.throttle()
	if len(g.s.running) > 0 {
		g.boost()
	}
	if g.s.hst != nil {
		g.s.hst.End(obs.PhaseGovernor, t0)
	}
}

// throttle steps jobs down the ladder until the predicted draw fits the
// control cap (the timeline's minimum over the next sampling interval —
// so an imminent downward step is enforced ahead of the windows judged
// against it). Victims are picked deterministically:
// lowest priority first, then the job shedding the most power per step,
// then highest ID. With conservative admission this loop is normally
// idle; it exists for cap reductions (plan steps), noise, and defence
// in depth.
func (g *governor) throttle() {
	cap := g.s.controlCap(g.s.cl.Kernel().Now())
	for g.s.predictedTotal() > cap {
		var victim *runningJob
		var saving units.Watts
		for _, rj := range g.sorted() {
			if rj.fIdx == 0 {
				continue
			}
			sv := rj.prof.Draw[rj.fIdx] - rj.prof.Draw[rj.fIdx-1]
			if victim == nil ||
				rj.e.res.priority() < victim.e.res.priority() ||
				(rj.e.res.priority() == victim.e.res.priority() &&
					(sv > saving ||
						(sv == saving && rj.e.res.ID > victim.e.res.ID))) {
				victim, saving = rj, sv
			}
		}
		if victim == nil {
			return // everything already at the ladder floor
		}
		g.retune(victim, victim.fIdx-1, "shed draw to the control cap")
	}
}

// boost walks jobs back up the ladder while power headroom allows it,
// highest priority first. Two regimes:
//
//   - Contended (jobs waiting in the queue): only steps the model says
//     improve the job's iso-energy-efficiency are taken — headroom is
//     reserved for admissions, and jobs whose EE falls with frequency
//     are left alone, which is what keeps the fleet's energy-per-job
//     down. Jobs admitted below their EE-optimal frequency because the
//     cluster was busy recover it here as capacity frees.
//   - Blocked (the last admission pass left jobs queued): no admission
//     can spend the watts before the next scheduling event, so they are
//     loaned to running jobs — but only onto steps the model predicts
//     do not increase the job's own energy, so cheap watts never buy
//     expensive joules. The relinquish pass below hands loaned watts
//     back the moment admission wants them.
//   - Drain (empty queue): the trace is ending, the idle floor burns
//     until the last job completes, and every spare second of makespan
//     costs the whole cluster's idle energy — so the governor races to
//     idle: any step up the ladder that fits under the cap is taken.
func (g *governor) boost() {
	drain := g.s.queued == 0
	blocked := g.s.blocked
	if !drain && !blocked {
		return
	}
	for {
		changed := false
		for _, rj := range g.sorted() {
			next := rj.fIdx + 1
			if next >= len(g.s.pools[rj.pool].ladder) {
				continue
			}
			eeGain := rj.prof.Pred[next].EE > rj.prof.Pred[rj.fIdx].EE+1e-12
			// Strict improvement only: a flat ladder segment is not a
			// gain, and retuning across one is pure churn.
			epGain := float64(rj.prof.Pred[next].Ep) < float64(rj.prof.Pred[rj.fIdx].Ep)*(1-epEpsilon)
			if !drain && !eeGain && !epGain {
				continue
			}
			cost := rj.prof.Draw[next] - rj.prof.Draw[rj.fIdx]
			if cost > g.s.headroom() {
				continue
			}
			// A backfill reservation holds watts for a blocked job at
			// its reserved start: a boost that would leave this job
			// running past that start may only spend the reservation's
			// spare watts, never the held ones — and with conservative
			// multi-reservations, every reservation it outlives must
			// afford the cost.
			if len(g.s.rsvs) > 0 {
				end := g.s.predictedEndAt(rj, next)
				short := false
				for _, rsv := range g.s.rsvs {
					if end > rsv.at && cost > rsv.extraWatts {
						short = true
						break
					}
				}
				if short {
					continue
				}
				for _, rsv := range g.s.rsvs {
					if end > rsv.at {
						rsv.extraWatts -= cost
					}
				}
			}
			why := "blocked queue: spare watts loaned"
			if drain {
				why = "race to idle: queue empty"
			}
			g.retune(rj, next, why)
			changed = true
		}
		if !changed {
			return
		}
	}
}

// relinquish steps every job running above its EE-preferred frequency
// back down to it (never below the admitted point), returning
// race-to-idle watts to the admission pool. The scheduler calls it
// before each admission pass while jobs are waiting; watts are worth
// more spent on starting queued work at an efficient point than on
// overclocking running work past its EE optimum.
func (g *governor) relinquish() {
	if g.s.queued == 0 {
		return
	}
	for _, rj := range g.sorted() {
		if floor := max(rj.eeIdx, rj.admIdx); rj.fIdx > floor {
			g.retune(rj, floor, "relinquish loaned watts to admission")
		}
	}
}

// retune moves a running job to index idx of its pool's ladder: bank
// each rank's energy at the outgoing vector, then switch the hardware
// (retuneRank; the cluster looks f up in the rank's own pool's ladder
// table).
// Work already in flight keeps its issued duration; subsequent slices
// use the new vector. Model progress is re-priced at the boundary so
// predicted completions (backfill's shadow clock) stay piecewise-exact.
func (g *governor) retune(rj *runningJob, idx int, why string) {
	if g.s.tel != nil {
		// Decision first, then the per-rank hardware events it causes.
		g.s.tel.emitRetune(rj, rj.fIdx, idx, why)
	}
	now := g.s.cl.Kernel().Now()
	rj.progress, rj.pricedAt = rj.fracAt(now), now
	f := g.s.pools[rj.pool].ladder[idx]
	for _, r := range rj.ranks {
		rj.energy += g.s.retuneRank(r, f)
	}
	rj.fIdx = idx
	rj.e.res.FreqChanges++
}

// sorted returns the running jobs ordered by priority descending, then
// job ID — the deterministic traversal order for control decisions. The
// slice is the governor's own buffer, overwritten by the next call.
func (g *governor) sorted() []*runningJob {
	g.order = append(g.order[:0], g.s.running...)
	slices.SortFunc(g.order, func(a, b *runningJob) int {
		ja, jb := &a.e.res.Job, &b.e.res.Job
		if c := cmp.Compare(jb.priority(), ja.priority()); c != 0 {
			return c
		}
		return cmp.Compare(ja.ID, jb.ID)
	})
	return g.order
}
