package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/units"
)

// This file implements EASY-style backfill with multi-dimensional
// reservations (per-pool ranks AND watts) on top of any admission
// policy.
//
// The greedy policies admit whatever fits, so under a continuous stream
// of narrow arrivals a wide job's admission can be deferred forever: a
// liveness bug, not a throughput trade-off. The classic fix is EASY
// backfill (Lifka's Argonne scheduler): when the queue head cannot
// start, reserve the earliest future point at which it can, and let
// later jobs jump the queue only if they do not push that point back.
//
// Under a power cap on a pooled platform the reservation must hold the
// watts dimension plus one rank dimension per pool. The shadow walk
// replays the model-predicted completions of every running (and
// just-admitted) job — each completion returns its rank set to its own
// pool and its conservative marginal draw (admission.go) to the shared
// watt pool — and probes the wrapped policy at each step: the first
// shadow state in which the inner policy would start the head becomes
// the reservation (start time, pool, width, watts). Probing the inner
// policy rather than a fixed rule keeps composition honest: a fifo head
// is reserved its full width at nominal frequency in the first pool
// that fits, an ee-max head its EE-best eligible point.
//
// Backfill then admits a later job only if its predicted completion
// lands before the reserved start, or if it fits inside the shadow
// state's spare capacity (extraRanks of its own pool, extraWatts) so
// the head still starts on time. The governor observes the same
// contract: a boost that would leave a job running past the reserved
// start may only spend the reservation's spare watts (governor.go).
//
// Predicted completions are the model's, re-priced at every retune via
// the runningJob progress bookkeeping (scheduler.go), and the whole
// reservation is recomputed from fresh state on every scheduling edge —
// prediction error shifts a reserved start, it never strands it.

// reservation promises a blocked job a (pool, ranks, watts) tuple at a
// model-predicted future start time. extraRanks (per pool) and
// extraWatts are the capacity beyond the promise still spendable by
// work that outlives the reserved start; admissions and governor boosts
// draw them down.
type reservation struct {
	e    *entry        // the blocked job holding the promise
	at   units.Seconds // reserved (shadow) start time
	dur  units.Seconds // predicted runtime of the reserved candidate
	pool int           // reserved pool
	p    int           // reserved width
	cost units.Watts   // reserved marginal draw

	extraRanks []int // per pool, indexed like Scheduler.pools
	extraWatts units.Watts
}

// permits reports whether admitting job e now on p ranks of pool, at
// marginal draw cost for a predicted tp, would keep the reservation
// intact: the reserved job itself is exempt, jobs whose predicted run
// does not overlap the reserved occupancy [at, at+dur) never touch it —
// completion before the reserved start, or (in a shadow probe at a
// future state) a start after the reserved job has drained — and
// anything else must fit the spare capacity of its own pool. Scalars,
// because most searched points die here: no Candidate is built for them.
func (r *reservation) permits(e *entry, now units.Seconds, pool, p int, cost units.Watts, tp units.Seconds) bool {
	if r == nil || e == r.e {
		return true
	}
	if now+tp <= r.at || now >= r.at+r.dur {
		return true
	}
	return p <= r.extraRanks[pool] && cost <= r.extraWatts
}

// permitted reports whether every active reservation permits the point
// — the conservative multi-reservation contract: an admission may delay
// none of the reserved starts.
func permitted(rsvs []*reservation, e *entry, now units.Seconds, pool, p int, cost units.Watts, tp units.Seconds) bool {
	for _, r := range rsvs {
		if !r.permits(e, now, pool, p, cost, tp) {
			return false
		}
	}
	return true
}

// Backfill wraps an admission policy with EASY-style reservations: the
// queue head is tried first with the full free capacity; if it cannot
// start, a reservation is computed for it and the inner policy backfills
// the remaining queue under that constraint.
func Backfill(inner Policy) Policy { return backfillPolicy{inner: inner, k: 1} }

// BackfillN is the conservative multi-reservation variant ("Reservations
// K"): the first k blocked jobs each get a reservation, computed in
// arrival order with every earlier reservation's start and predicted
// completion replayed in the shadow timeline, and an admission must
// delay none of the reserved starts. k = 1 is exactly Backfill.
func BackfillN(inner Policy, k int) Policy { return backfillPolicy{inner: inner, k: max(k, 1)} }

type backfillPolicy struct {
	inner Policy
	k     int // reservations held for the first k blocked jobs
}

func (b backfillPolicy) Name() string {
	if b.k > 1 {
		return fmt.Sprintf("backfill%d+%s", b.k, b.inner.Name())
	}
	return "backfill+" + b.inner.Name()
}
func (b backfillPolicy) DVFS() bool { return b.inner.DVFS() }

func (b backfillPolicy) Admit(ctx *AdmitContext) {
	// Phase 1: start queue heads in arrival order while they fit. Each
	// head in turn gets an exclusive pass over the whole remaining
	// capacity — nothing bypasses it while it is startable.
	for {
		head := ctx.head()
		if head == nil {
			return // queue drained into admissions
		}
		before := len(ctx.admitted)
		ctx.only = head
		b.inner.Admit(ctx)
		ctx.only = nil
		if len(ctx.admitted) == before {
			break // the head must wait: reserve for it
		}
	}

	// Phase 2: reserve the earliest shadow state in which the inner
	// policy would start the blocked head; with Reservations K > 1,
	// walk the queue in arrival order and reserve for up to k blocked
	// jobs, each shadow walk replaying the earlier reservations. A job
	// that can start right now under the reservations so far is simply
	// started — it needs no promise.
	var rsvs []*reservation
	if !ctx.shadow {
		// The list's storage is the last pass's, lent until this pass
		// hands its own list back below: a Backfill nested in this one
		// finds it lent and grows a list of its own.
		rsvs, ctx.s.rsvs = ctx.s.rsvs[:0], nil
	}
	head := ctx.head()
	rsvs, ok := ctx.s.computeReservation(head, b.inner, ctx, rsvs)
	if ok {
		for _, e := range ctx.queue { // not Queued: it yields nothing on a full cluster
			if len(rsvs) >= b.k {
				break
			}
			if e == head || !ctx.waiting(e) {
				continue
			}
			ctx.rsvs = rsvs
			before := len(ctx.admitted)
			ctx.only = e
			b.inner.Admit(ctx)
			ctx.only = nil
			if len(ctx.admitted) > before {
				continue // startable now; no reservation needed
			}
			rsvs, _ = ctx.s.computeReservation(e, b.inner, ctx, rsvs)
		}
	}
	if !ctx.shadow {
		ctx.s.rsvs = rsvs
		if ctx.s.tel != nil {
			for _, rsv := range rsvs {
				ctx.s.tel.emitReserve(rsv)
			}
		}
	}
	ctx.rsvs = rsvs

	// Phase 3: backfill the rest of the queue under the reservations.
	b.inner.Admit(ctx)
}

// computeReservation runs the shadow walk for one blocked job: replay
// the predicted completions of running and just-admitted jobs in time
// order — plus, for conservative multi-reservations, the reserved
// starts and predicted completions of every earlier reservation —
// crediting each completion's ranks back to its own pool and its
// marginal draw to the shared watt budget, and probe the inner policy
// at every distinct shadow time. Under a cap timeline the shadow budget
// additionally shifts with the control cap at each event's time, so a
// reservation can land inside a future budget window the present one
// could not afford (or be pushed past a squeeze). The first probe that
// starts the job defines the reservation. At the final event the
// cluster is fully drained, so the probe relaxes the width-slack rule
// exactly as tryAdmit does on an idle cluster — any job feasible at all
// is guaranteed a reservation, which is the liveness bound. It returns
// prior with the reservation, a spare one when the last pass left any,
// appended, or prior and false when there is nothing running to wait
// for or the job is infeasible even on the drained cluster.
func (s *Scheduler) computeReservation(head *entry, inner Policy, ctx *AdmitContext, prior []*reservation) ([]*reservation, bool) {
	if s.hst != nil {
		defer s.hst.End(obs.PhaseBackfill, s.hst.Begin())
	}
	w := s.takeShadow()
	evs, free := w.evs[:0], w.free[:0]
	defer func() { w.evs, w.free, s.shadow = evs, free, w }()
	for _, rj := range s.running {
		idle := units.Watts(float64(len(rj.ranks)) * float64(s.pools[rj.pool].idleMin))
		evs = append(evs, shadowEvent{t: s.predictedEndAt(rj, rj.fIdx), id: rj.e.res.ID, pool: rj.pool, ranks: len(rj.ranks), watts: rj.prof.Draw[rj.fIdx] - idle})
	}
	for _, adm := range ctx.admitted {
		evs = append(evs, shadowEvent{t: ctx.now + adm.cand.Tp, id: adm.e.res.ID, pool: adm.cand.Pool, ranks: adm.cand.P, watts: adm.cand.Cost})
	}
	for _, r := range prior {
		// An earlier reservation occupies its promised capacity between
		// its reserved start and its predicted completion.
		evs = append(evs, shadowEvent{t: r.at, id: r.e.res.ID, pool: r.pool, ranks: -r.p, watts: -r.cost})
		evs = append(evs, shadowEvent{t: r.at + r.dur, id: r.e.res.ID, pool: r.pool, ranks: r.p, watts: r.cost})
	}
	if len(evs) == 0 {
		return prior, false
	}
	slices.SortFunc(evs, func(a, b shadowEvent) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.id, b.id),
			cmp.Compare(a.ranks, b.ranks)) // a reservation's start precedes its own release
	})
	free, watts := append(free, ctx.free...), ctx.headroom
	for i, e := range evs {
		free[e.pool] += e.ranks
		watts += e.watts
		if i+1 < len(evs) && evs[i+1].t == e.t {
			continue // coalesce simultaneous completions
		}
		// The shadow state's budget lives under the control cap at the
		// event's own time, not at now.
		avail := watts + (s.controlCap(e.t) - s.controlCap(ctx.now))
		relaxed := ctx.relaxed || i == len(evs)-1
		if cand, ok := s.shadowCandidate(w, inner, head, free, avail, e.t, relaxed, prior); ok {
			var r *reservation
			if n := len(s.spareRsvs); n > 0 {
				r, s.spareRsvs = s.spareRsvs[n-1], s.spareRsvs[:n-1]
			} else {
				r = new(reservation)
			}
			extra := append(r.extraRanks[:0], free...)
			extra[cand.Pool] -= cand.P
			*r = reservation{
				e:          head,
				at:         e.t,
				dur:        cand.Tp,
				pool:       cand.Pool,
				p:          cand.P,
				cost:       cand.Cost,
				extraRanks: extra,
				extraWatts: avail - cand.Cost,
			}
			return append(prior, r), true
		}
	}
	return prior, false
}

// shadowEvent is one step of the shadow walk: job id's ranks return to
// pool and its marginal draw to the budget at t (a prior reservation's
// start takes them).
type shadowEvent struct {
	t           units.Seconds
	id          int
	pool, ranks int
	watts       units.Watts
}

// shadowScratch is the storage shadow walks reuse from pass to pass: the
// events, the running free ranks, and the probe context with its
// one-entry queue (shadowCandidate).
type shadowScratch struct {
	evs  []shadowEvent
	free []int
	ctx  AdmitContext
	one  [1]*entry
}

// takeShadow lends out the walk scratch until the borrower puts it back
// in s.shadow. A walk nested in a probe — a Backfill wrapping a Backfill
// — finds it lent and gets storage of its own.
func (s *Scheduler) takeShadow() (w *shadowScratch) {
	if w, s.shadow = s.shadow, nil; w == nil {
		w = new(shadowScratch)
	}
	return w
}

// shadowCandidate asks the inner policy whether it would start job e on
// a hypothetical cluster with the given per-pool free ranks and power
// headroom at virtual time at, and with which candidate. Earlier
// reservations constrain the probe exactly as they constrain real
// admissions. The probe runs on w's context and never mutates scheduler
// state.
func (s *Scheduler) shadowCandidate(w *shadowScratch, inner Policy, e *entry, free []int, watts units.Watts, at units.Seconds, relaxed bool, prior []*reservation) (Candidate, bool) {
	w.one[0] = e
	sctx := &w.ctx
	*sctx = AdmitContext{
		s:        s,
		now:      at,
		ctrl:     s.controlCap(at),
		free:     append(sctx.free[:0], free...),
		headroom: watts,
		queue:    w.one[:],
		prio:     w.one[:],
		admitted: sctx.admitted[:0],
		relaxed:  relaxed,
		shadow:   true,
		rsvs:     prior,
	}
	inner.Admit(sctx)
	if len(sctx.admitted) == 0 {
		return Candidate{}, false
	}
	return sctx.admitted[0].cand, true
}
