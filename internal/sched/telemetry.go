package sched

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// schedTelemetry binds a telemetry.Recorder to one scheduler run: the
// metric handles registered at Run plus the emit helpers the scheduling
// edges call. Scheduler.tel is nil when Config.Telemetry is nil, and
// every emit site is guarded on that pointer, so the disabled path
// constructs no events, formats no reasons, and allocates nothing — the
// golden tests pin the resulting schedules byte-identical.
type schedTelemetry struct {
	s   *Scheduler
	rec *telemetry.Recorder

	admitted   *telemetry.Counter
	rejected   *telemetry.Counter
	finished   *telemetry.Counter
	bypasses   *telemetry.Counter
	retunes    *telemetry.Counter
	violations *telemetry.Counter
	queueDepth *telemetry.Gauge
	headroomW  *telemetry.Gauge
	freeRanks  []*telemetry.Gauge
	waitHist   *telemetry.Histogram

	// Fault metrics, registered only under Config.Faults so the metrics
	// CSV header of a fault-free run is unchanged.
	fails       *telemetry.Counter
	repairs     *telemetry.Counter
	kills       *telemetry.Counter
	restarts    *telemetry.Counter
	checkpoints *telemetry.Counter
	lost        *telemetry.Counter

	// The block reasons that carry a number, each keeping its last
	// rendering: an edge replays every blocked job against one free-rank
	// count, slack and headroom, so nearly every call repeats the
	// previous one's argument.
	ranksReason              reasonMemo[int]
	slackReason, wattsReason reasonMemo[float64]
}

// reasonMemo formats a one-argument reason once per distinct run of
// its argument.
type reasonMemo[K comparable] struct {
	key  K
	text string
}

func (m *reasonMemo[K]) get(format string, key K) string {
	if m.text == "" || m.key != key {
		m.key, m.text = key, fmt.Sprintf(format, key)
	}
	return m.text
}

// blockReason words view.blockStage's verdict on a still-queued job:
// the rule that eliminated its last surviving candidates.
func (t *schedTelemetry) blockReason(view *AdmitContext, e *entry) string {
	switch view.blockStage(e) {
	case stageUnpriced:
		return "model: no width of any pool evaluates"
	case stageModel:
		return "model: a grid row fails to evaluate"
	case stageNone:
		return t.ranksReason.get("ranks: no candidate width fits the %d free ranks", view.freeRanks())
	case stageWidth:
		return t.slackReason.get("perf-slack: every width that fits free ranks runs over %.1fx the job's fastest time", PerfSlack(t.s.cfg.PerfSlack))
	case stageSlack:
		return t.wattsReason.get("watts: no eligible point fits the %.1f W headroom", float64(view.headroom))
	case stageBudget:
		return "plan-min-cap: fits the current window but not the minimum cap over its predicted lifetime"
	case stagePlan:
		return "reservation: every affordable point would delay a reserved start"
	default:
		return "policy: a feasible point exists but the policy declined it"
	}
}

// newSchedTelemetry wires the recorder into a run: sim-time clock,
// metrics registry, and the cluster's hardware retune hook. Called from
// Run before any event can fire.
func newSchedTelemetry(s *Scheduler, rec *telemetry.Recorder) *schedTelemetry {
	if rec == nil {
		// Callers hold the Enabled() guard; a nil glue keeps every
		// s.tel != nil emit site allocation-free regardless.
		return nil
	}
	rec.SetClock(s.cl.Kernel())
	m := rec.Metrics()
	t := &schedTelemetry{
		s:          s,
		rec:        rec,
		admitted:   m.Counter("admitted"),
		rejected:   m.Counter("rejected"),
		finished:   m.Counter("finished"),
		bypasses:   m.Counter("head_bypasses"),
		retunes:    m.RateCounter("rank_retunes"),
		violations: m.Counter("cap_violations"),
		queueDepth: m.Gauge("queue_depth"),
		headroomW:  m.Gauge("headroom_w"),
		// Wait-time buckets span sub-interval admissions out to long
		// plan-window parks (seconds).
		waitHist: m.Histogram("wait_s", 0.01, 0.1, 1, 10, 60, 600),
	}
	t.freeRanks = make([]*telemetry.Gauge, len(s.pools))
	for i := range s.pools {
		t.freeRanks[i] = m.Gauge("free_" + s.pools[i].name)
	}
	if s.cfg.Faults != nil {
		t.fails = m.Counter("rank_failures")
		t.repairs = m.Counter("rank_repairs")
		t.kills = m.Counter("job_kills")
		t.restarts = m.Counter("job_restarts")
		t.checkpoints = m.Counter("checkpoints")
		t.lost = m.Counter("jobs_lost")
	}
	// Every effective per-rank frequency change — admission dispatch,
	// governor retune, parking at finish — becomes a hardware-level
	// event under the decision that caused it.
	s.cl.OnRetune(func(rank int, from, to units.Hertz) {
		t.retunes.Inc()
		t.rec.Emit(telemetry.Event{
			Kind:     telemetry.EvRankRetune,
			Job:      telemetry.NoJob,
			Rank:     rank,
			FreqFrom: from,
			Freq:     to,
		})
	})
	return t
}

// onSample forwards a profiler sample into the event stream. Registered
// before the governor's control hook, so the stream shows the
// measurement first and the control reaction (throttles, violations)
// after it — the order they logically happen in.
func (t *schedTelemetry) onSample(sm power.Sample) {
	t.rec.Emit(telemetry.Event{
		Kind:  telemetry.EvSample,
		Job:   telemetry.NoJob,
		Power: sm.Total,
		Cap:   t.s.capAt(sm.T),
	})
}

// edge closes a scheduling edge: one attempt event per still-blocked
// job naming the binding constraint, gauges refreshed, and one metrics
// row sampled — so the CSV is a consistent snapshot at every decision
// point. Runs after edgeRetune so the snapshot reflects the settled
// state.
func (t *schedTelemetry) edge() {
	// One snapshot of the settled state serves every blocked job's
	// replay and the gauges.
	view := t.s.liveContext(false)
	view.rsvs = t.s.rsvs
	for i, e := range t.s.queue {
		t.rec.Emit(telemetry.Event{
			Kind:   telemetry.EvAttempt,
			Job:    e.job.ID,
			App:    e.job.Vector.Name,
			Reason: t.blockReason(view, e),
			Queue:  len(t.s.queue) - i, // jobs at or behind this one
		})
	}
	t.queueDepth.Set(float64(len(t.s.queue)))
	t.headroomW.Set(float64(view.headroom))
	for i, free := range view.free {
		t.freeRanks[i].Set(float64(free))
	}
	t.rec.Metrics().Sample(view.now)
}

// emitArrive records a job entering the queue.
func (t *schedTelemetry) emitArrive(e *entry) {
	t.rec.Emit(telemetry.Event{
		Kind:  telemetry.EvArrive,
		Job:   e.job.ID,
		App:   e.job.Vector.Name,
		P:     e.job.MaxWidth,
		Queue: len(t.s.queue),
	})
}

// emitReject records a job that can never run.
func (t *schedTelemetry) emitReject(e *entry, reason string) {
	t.rejected.Inc()
	t.rec.Emit(telemetry.Event{
		Kind:   telemetry.EvReject,
		Job:    e.job.ID,
		App:    e.job.Vector.Name,
		Reason: reason,
	})
}

// emitAdmit records a dispatch: the chosen operating point, its
// predicted cost and runtime, and the cluster state left behind.
// queueAfter is the queue depth once this admission is pruned.
func (t *schedTelemetry) emitAdmit(rj *runningJob, cand Candidate, backfilled bool, queueAfter int) {
	t.admitted.Inc()
	t.waitHist.Observe(float64(rj.e.res.Wait))
	ps := &t.s.pools[cand.Pool]
	t.rec.Emit(telemetry.Event{
		Kind:       telemetry.EvAdmit,
		Job:        rj.e.job.ID,
		App:        rj.e.job.Vector.Name,
		Pool:       ps.name,
		P:          cand.P,
		Ranks:      rj.ranks,
		Freq:       cand.Freq,
		Watts:      cand.Cost,
		EE:         cand.EE,
		Wait:       rj.e.res.Wait,
		Dur:        cand.Tp,
		Headroom:   t.s.headroom(),
		Free:       len(ps.free),
		Queue:      queueAfter,
		Backfilled: backfilled,
	})
}

// emitFinish records a completion and the capacity it released.
func (t *schedTelemetry) emitFinish(rj *runningJob) {
	t.finished.Inc()
	res := &rj.e.res
	ps := &t.s.pools[rj.pool]
	t.rec.Emit(telemetry.Event{
		Kind:     telemetry.EvFinish,
		Job:      rj.e.job.ID,
		App:      rj.e.job.Vector.Name,
		Pool:     ps.name,
		P:        res.FreqChanges,
		Ranks:    rj.ranks,
		Dur:      res.End - res.Start,
		Energy:   res.Energy,
		Headroom: t.s.headroom(),
		Free:     len(ps.free),
		Queue:    len(t.s.queue),
	})
}

// emitReserve records a backfill promise.
func (t *schedTelemetry) emitReserve(rsv *reservation) {
	t.rec.Emit(telemetry.Event{
		Kind:  telemetry.EvReserve,
		Job:   rsv.e.job.ID,
		App:   rsv.e.job.Vector.Name,
		Pool:  t.s.pools[rsv.pool].name,
		P:     rsv.p,
		Watts: rsv.cost,
		At:    rsv.at,
		Dur:   rsv.dur,
	})
}

// emitRetune records a governor ladder move with its before/after
// operating points.
func (t *schedTelemetry) emitRetune(rj *runningJob, from, to int, why string) {
	kind := telemetry.EvThrottle
	if to > from {
		kind = telemetry.EvBoost
	}
	ladder := t.s.ladderOf(rj)
	t.rec.Emit(telemetry.Event{
		Kind:      kind,
		Job:       rj.e.job.ID,
		App:       rj.e.job.Vector.Name,
		Pool:      t.s.pools[rj.pool].name,
		FreqFrom:  ladder[from],
		Freq:      ladder[to],
		WattsFrom: rj.prof.Draw[from],
		Watts:     rj.prof.Draw[to],
		Reason:    why,
	})
}

// emitPlanEdge records a cap-timeline breakpoint edge. Cap is the
// control cap now enforced — at a pre-drop edge that is already the
// incoming (lower) budget, which is exactly what the governor throttles
// to.
func (t *schedTelemetry) emitPlanEdge(preDrop bool) {
	now := t.s.cl.Kernel().Now()
	reason := ""
	if preDrop {
		reason = "pre-drop"
	} else {
		i, _ := t.s.effPlan.WindowAt(now)
		reason = fmt.Sprintf("window %d", i)
	}
	t.rec.Emit(telemetry.Event{
		Kind:   telemetry.EvPlanEdge,
		Job:    telemetry.NoJob,
		Cap:    t.s.controlCap(now),
		Reason: reason,
	})
}

// emitViolation records a measured sample exceeding its cap.
func (t *schedTelemetry) emitViolation(sm power.Sample, cap units.Watts) {
	t.violations.Inc()
	t.rec.Emit(telemetry.Event{
		Kind:  telemetry.EvViolation,
		Job:   telemetry.NoJob,
		Power: sm.Total,
		Cap:   cap,
	})
}

// emitFail records a rank going down; source is "scripted" or "mtbf".
func (t *schedTelemetry) emitFail(rank int, pool, source string) {
	t.fails.Inc()
	t.rec.Emit(telemetry.Event{
		Kind:   telemetry.EvFail,
		Job:    telemetry.NoJob,
		Pool:   pool,
		Rank:   rank,
		Reason: source,
	})
}

// emitRepair records a rank coming back after down seconds.
func (t *schedTelemetry) emitRepair(rank int, pool string, down units.Seconds) {
	t.repairs.Inc()
	t.rec.Emit(telemetry.Event{
		Kind: telemetry.EvRepair,
		Job:  telemetry.NoJob,
		Pool: pool,
		Rank: rank,
		Dur:  down,
	})
}

// emitKill records a rank failure aborting a running attempt: the work
// discarded since the last checkpoint, the attempt's wasted energy, and
// whether the job requeued or is permanently lost.
func (t *schedTelemetry) emitKill(rj *runningJob, lost units.Seconds, wasted units.Joules, reason string) {
	t.kills.Inc()
	t.rec.Emit(telemetry.Event{
		Kind:   telemetry.EvKill,
		Job:    rj.e.job.ID,
		App:    rj.e.job.Vector.Name,
		Pool:   t.s.pools[rj.pool].name,
		Ranks:  rj.ranks,
		Dur:    lost,
		Energy: wasted,
		Reason: reason,
	})
}

// emitLost records a queued job finalised as lost (it was killed
// earlier and the surviving capacity can never rerun it). Rendered as
// a kill with no attempt attached.
func (t *schedTelemetry) emitLost(e *entry, reason string) {
	t.kills.Inc()
	t.rec.Emit(telemetry.Event{
		Kind:   telemetry.EvKill,
		Job:    e.job.ID,
		App:    e.job.Vector.Name,
		Reason: reason,
	})
}

// emitCheckpoint records a periodic checkpoint; EE carries the saved
// absolute progress fraction.
func (t *schedTelemetry) emitCheckpoint(rj *runningJob) {
	t.checkpoints.Inc()
	t.rec.Emit(telemetry.Event{
		Kind: telemetry.EvCheckpoint,
		Job:  rj.e.job.ID,
		App:  rj.e.job.Vector.Name,
		Pool: t.s.pools[rj.pool].name,
		EE:   rj.lastCkpt,
	})
}

// emitRestart records a killed job's re-dispatch: P is the attempt
// ordinal, EE the checkpointed fraction it resumes from.
func (t *schedTelemetry) emitRestart(rj *runningJob) {
	t.restarts.Inc()
	t.rec.Emit(telemetry.Event{
		Kind: telemetry.EvRestart,
		Job:  rj.e.job.ID,
		App:  rj.e.job.Vector.Name,
		Pool: t.s.pools[rj.pool].name,
		P:    rj.e.res.Restarts,
		EE:   rj.base,
	})
}

// emitEmergency marks a power-emergency boundary; Cap is the effective
// cap now in force, which the cap timeline already encodes.
func (t *schedTelemetry) emitEmergency(cap units.Watts, which string) {
	t.rec.Emit(telemetry.Event{
		Kind:   telemetry.EvEmergency,
		Job:    telemetry.NoJob,
		Cap:    cap,
		Reason: which,
	})
}
