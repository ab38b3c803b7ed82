package sched

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// schedTelemetry binds a telemetry.Recorder to one scheduler run: the
// metric handles registered at Run plus the emit helpers the scheduling
// edges call. Counters of what the event stream records (admissions,
// retunes, faults, …) and the wait histogram are filled by the
// registry from the stream itself; only what no event carries is kept
// here. Scheduler.tel is nil when Config.Telemetry is nil, and
// every emit site is guarded on that pointer, so the disabled path
// constructs no events, formats no reasons, and allocates nothing — the
// golden tests pin the resulting schedules byte-identical.
type schedTelemetry struct {
	s   *Scheduler
	rec *telemetry.Recorder

	bypasses   *telemetry.Counter
	lost       *telemetry.Counter // nil without Config.Faults
	queueDepth *telemetry.Gauge
	headroomW  *telemetry.Gauge
	freeRanks  []*telemetry.Gauge

	// The block reasons that carry a number, each keeping its last
	// rendering: an edge replays every blocked job against one free-rank
	// count and headroom, so nearly every call repeats the previous
	// one's argument.
	ranksReason reasonMemo[int]
	wattsReason reasonMemo[float64]
}

// slackReason is the perf-slack block reason, PerfSlack spelled out.
const slackReason = "perf-slack: every width that fits free ranks runs over 1.3x the job's fastest time"

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
		return slackReason
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

// newSchedTelemetry wires the recorder into a run: sim-time clock and
// metrics registry. Called from Run before any event can fire.
func newSchedTelemetry(s *Scheduler, rec *telemetry.Recorder) *schedTelemetry {
	if rec == nil {
		// Callers hold the Enabled() guard; a nil glue keeps every
		// s.tel != nil emit site allocation-free regardless.
		return nil
	}
	rec.SetClock(s.cl.Kernel())
	// Registration order is the metrics CSV's column order.
	m := rec.Metrics()
	m.Counter("admitted", telemetry.EvAdmit)
	m.Counter("rejected", telemetry.EvReject)
	m.Counter("finished", telemetry.EvFinish)
	t := &schedTelemetry{s: s, rec: rec, bypasses: m.Counter("head_bypasses")}
	m.Counter("cap_violations", telemetry.EvViolation)
	// Wait-time buckets span sub-interval admissions out to long
	// plan-window parks (seconds).
	m.WaitHistogram("wait_s", 0.01, 0.1, 1, 10, 60, 600)
	t.queueDepth = m.Gauge("queue_depth")
	t.headroomW = m.Gauge("headroom_w")
	t.freeRanks = make([]*telemetry.Gauge, len(s.pools))
	for i := range s.pools {
		t.freeRanks[i] = m.Gauge("free_" + s.pools[i].name)
	}
	// Fault metrics, registered only under Config.Faults so the metrics
	// CSV header of a fault-free run is unchanged.
	if s.cfg.Faults != nil {
		m.Counter("rank_failures", telemetry.EvFail)
		m.Counter("rank_repairs", telemetry.EvRepair)
		m.Counter("job_kills", telemetry.EvKill)
		m.Counter("job_restarts", telemetry.EvRestart)
		m.Counter("checkpoints", telemetry.EvCheckpoint)
		t.lost = m.Counter("jobs_lost")
	}
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
		Cap:   t.s.capPlan.CapAt(sm.T),
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
	behind := t.s.queued // jobs at or behind this one
	for _, e := range t.s.queue[t.s.first:] {
		if e.res.State != Queued {
			continue
		}
		t.rec.Emit(telemetry.Event{
			Kind:   telemetry.EvAttempt,
			Job:    e.res.ID,
			App:    e.res.Vector.Name,
			Reason: t.blockReason(view, e),
			Queue:  behind,
		})
		behind--
	}
	t.queueDepth.Set(float64(t.s.queued))
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
		Job:   e.res.ID,
		App:   e.res.Vector.Name,
		P:     e.res.MaxWidth,
		Queue: t.s.queued,
	})
}

// emitDrop records a job that can never run: rejected (EvReject), or,
// once killed earlier, lost while queued (EvKill with no attempt
// attached: the surviving capacity can never rerun it).
func (t *schedTelemetry) emitDrop(kind telemetry.Kind, e *entry, reason string) {
	t.rec.Emit(telemetry.Event{
		Kind:   kind,
		Job:    e.res.ID,
		App:    e.res.Vector.Name,
		Reason: reason,
	})
}

// emitAdmit records a dispatch: the chosen operating point, its
// predicted cost and runtime, and the cluster state left behind. Its
// ranks leave the park frequency, where every free rank sits.
func (t *schedTelemetry) emitAdmit(rj *runningJob, cand Candidate, backfilled bool) {
	ps := &t.s.pools[cand.Pool]
	t.rec.Emit(telemetry.Event{
		Kind:       telemetry.EvAdmit,
		Job:        rj.e.res.ID,
		App:        rj.e.res.Vector.Name,
		Pool:       ps.name,
		P:          cand.P,
		Ranks:      rj.ranks,
		FreqFrom:   ps.ladder[0],
		Freq:       cand.Freq,
		Watts:      cand.Cost,
		EE:         cand.EE,
		Wait:       rj.e.res.Wait,
		Dur:        cand.Tp,
		Headroom:   t.s.headroom(),
		Free:       len(ps.free),
		Queue:      t.s.queued,
		Backfilled: backfilled,
	})
}

// emitFinish records a completion, its ranks parked, and the capacity
// it released.
func (t *schedTelemetry) emitFinish(rj *runningJob) {
	res := rj.e.res
	ps := &t.s.pools[rj.pool]
	t.rec.Emit(telemetry.Event{
		Kind:     telemetry.EvFinish,
		Job:      rj.e.res.ID,
		App:      rj.e.res.Vector.Name,
		Pool:     ps.name,
		P:        res.FreqChanges,
		Ranks:    rj.ranks,
		FreqFrom: ps.ladder[rj.fIdx],
		Freq:     ps.ladder[0],
		Dur:      res.End - res.Start,
		Energy:   res.Energy,
		Headroom: t.s.headroom(),
		Free:     len(ps.free),
		Queue:    t.s.queued,
	})
}

// emitReserve records a backfill promise.
func (t *schedTelemetry) emitReserve(rsv *reservation) {
	t.rec.Emit(telemetry.Event{
		Kind:  telemetry.EvReserve,
		Job:   rsv.e.res.ID,
		App:   rsv.e.res.Vector.Name,
		Pool:  t.s.pools[rsv.pool].name,
		P:     rsv.p,
		Watts: rsv.cost,
		At:    rsv.at,
		Dur:   rsv.dur,
	})
}

// emitRetune records a governor ladder move of the job's ranks with
// its before/after operating points.
func (t *schedTelemetry) emitRetune(rj *runningJob, from, to int, why string) {
	kind := telemetry.EvThrottle
	if to > from {
		kind = telemetry.EvBoost
	}
	ladder := t.s.pools[rj.pool].ladder
	t.rec.Emit(telemetry.Event{
		Kind:      kind,
		Job:       rj.e.res.ID,
		App:       rj.e.res.Vector.Name,
		Pool:      t.s.pools[rj.pool].name,
		Ranks:     rj.ranks,
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
		i, _ := t.s.capPlan.WindowAt(now)
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
	t.rec.Emit(telemetry.Event{
		Kind:  telemetry.EvViolation,
		Job:   telemetry.NoJob,
		Power: sm.Total,
		Cap:   cap,
	})
}

// emitFail records a rank going down; source is "scripted" or "mtbf".
func (t *schedTelemetry) emitFail(rank int, pool, source string) {
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
// whether the job requeued or is permanently lost. Its ranks, the dead
// one included, are parked.
func (t *schedTelemetry) emitKill(rj *runningJob, lost units.Seconds, wasted units.Joules, reason string) {
	ps := &t.s.pools[rj.pool]
	t.rec.Emit(telemetry.Event{
		Kind:     telemetry.EvKill,
		Job:      rj.e.res.ID,
		App:      rj.e.res.Vector.Name,
		Pool:     ps.name,
		Ranks:    rj.ranks,
		FreqFrom: ps.ladder[rj.fIdx],
		Freq:     ps.ladder[0],
		Dur:      lost,
		Energy:   wasted,
		Reason:   reason,
	})
}

// emitCheckpoint records a periodic checkpoint; EE carries the saved
// absolute progress fraction.
func (t *schedTelemetry) emitCheckpoint(rj *runningJob) {
	t.rec.Emit(telemetry.Event{
		Kind: telemetry.EvCheckpoint,
		Job:  rj.e.res.ID,
		App:  rj.e.res.Vector.Name,
		Pool: t.s.pools[rj.pool].name,
		EE:   rj.lastCkpt,
	})
}

// emitRestart records a killed job's re-dispatch: P is the attempt
// ordinal, EE the checkpointed fraction it resumes from.
func (t *schedTelemetry) emitRestart(rj *runningJob) {
	t.rec.Emit(telemetry.Event{
		Kind: telemetry.EvRestart,
		Job:  rj.e.res.ID,
		App:  rj.e.res.Vector.Name,
		Pool: t.s.pools[rj.pool].name,
		P:    rj.e.res.Restarts,
		EE:   rj.base,
	})
}
