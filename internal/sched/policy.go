package sched

import (
	"fmt"
	"iter"
	"strings"

	"repro/internal/analysis"
	"repro/internal/units"
)

// Policy decides which queued jobs start, and at which (pool, p, f)
// operating points, whenever cluster capacity changes. Policies are
// stateless and live in this package; everything they may inspect or do
// flows through the AdmitContext.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// DVFS reports whether the runtime governor may retune this
	// policy's jobs after admission.
	DVFS() bool
	// Admit ranges over ctx.Queued() or ctx.Prioritized() and calls
	// ctx.Admit for every job to start now. The context tracks
	// remaining per-pool ranks and headroom as admissions accumulate.
	Admit(ctx *AdmitContext)
}

// AdmitContext is the view of the cluster a Policy decides against, plus
// the mutation point (Admit) through which decisions are returned. A
// live context reads the scheduler's queue and priority view in place
// and marks admissions on the entries themselves: nothing is copied.
type AdmitContext struct {
	s   *Scheduler
	now units.Seconds
	// ctrl is the control cap at now, the reference the
	// min-over-lifetime rule narrows budgets against.
	ctrl units.Watts

	free     []int // per-pool free ranks, indexed like Scheduler.pools
	headroom units.Watts
	// queue and prio are the waiting jobs in insertion and in priority
	// order: the scheduler's own slices on a live pass, the single
	// probed entry on a shadow one.
	queue, prio []*entry
	admitted    []admission
	relaxed     bool

	// only restricts Queued and Prioritized to one job — how the
	// Backfill wrapper gives the queue head an exclusive, unconstrained
	// admission shot.
	only *entry
	// rsvs constrain admissions to ones that neither delay the reserved
	// start of any blocked, reserved job nor eat its reserved per-pool
	// ranks or watts.
	rsvs []*reservation
	// shadow marks a hypothetical context used to probe a policy at a
	// future cluster state (backfill.go); shadow passes never touch the
	// scheduler's counters.
	shadow bool
	// bypasses counts admissions in this pass that jumped an
	// earlier-arrived waiter.
	bypasses int
}

type admission struct {
	e          *entry
	cand       Candidate
	backfilled bool
}

// liveContext opens a context on the cluster's current state, for an
// admission pass or the telemetry edge's block-reason replay. Its free
// ranks are the scheduler's one scratch slice: one live context at a time.
func (s *Scheduler) liveContext(relaxed bool) *AdmitContext {
	now := s.cl.Kernel().Now()
	return &AdmitContext{
		s:        s,
		now:      now,
		ctrl:     s.controlCap(now),
		free:     s.freeByPool(),
		headroom: s.headroom(),
		queue:    s.queue,
		prio:     s.prio,
		relaxed:  relaxed,
	}
}

// Queued yields the waiting jobs in queue (insertion) order, skipping
// those already admitted through this context.
func (c *AdmitContext) Queued() iter.Seq[*entry] { return c.pending(c.queue) }

// Prioritized yields the same jobs in the EE-aware policies' order:
// priority descending, then arrival, then ID.
func (c *AdmitContext) Prioritized() iter.Seq[*entry] { return c.pending(c.prio) }

// pending stops once no pool has a free rank: Best then finds no width
// and At too few ranks, so every job skipped is a certain "wait". Ranks
// only — a zero headroom still admits a zero-cost point.
func (c *AdmitContext) pending(view []*entry) iter.Seq[*entry] {
	return func(yield func(*entry) bool) {
		v := view
		if c.only != nil {
			v = []*entry{c.only}
		}
		for _, e := range v {
			if c.freeRanks() == 0 {
				return
			}
			if !c.taken(e) && !yield(e) {
				return
			}
		}
	}
}

// taken reports whether e was already admitted through this context. A
// live pass marks the entry itself; a shadow probe, whose single entry
// belongs to the pass that spawned it, counts its one possible admission.
func (c *AdmitContext) taken(e *entry) bool {
	if c.shadow {
		return len(c.admitted) > 0
	}
	return e.taken
}

// freeRanks counts the ranks not yet claimed in any pool, including by
// admissions already made through this context.
func (c *AdmitContext) freeRanks() int {
	n := 0
	for _, f := range c.free {
		n += f
	}
	return n
}

// head returns the first pending job in queue order — insertion order,
// so a requeued job stands behind everything already waiting, whatever
// its arrival time. It is the job EASY-style backfill protects with a
// reservation — on a full cluster above all, where Queued yields nothing.
func (c *AdmitContext) head() *entry {
	for _, e := range c.queue {
		if !c.taken(e) {
			return e
		}
	}
	return nil
}

// At prices one explicit (pool, p, f) point for the job off its entry's
// grid (priced); ok is false when the point is invalid, needs more ranks
// than the pool has free, exceeds the context's remaining headroom
// (narrowed, under a cap timeline, to the minimum budget window the job
// would live through), or would eat an active backfill reservation.
func (c *AdmitContext) At(e *entry, pool, p int, f units.Hertz) (Candidate, bool) {
	if pool < 0 || pool >= len(c.free) || p < 1 || p > c.free[pool] {
		return Candidate{}, false
	}
	j, ps := &e.job, &c.s.pools[pool]
	fi := ps.cache.LadderIndex(f)
	if fi < 0 {
		return Candidate{}, false
	}
	row, _ := c.s.priced(e, pool, p)
	if row == nil {
		return Candidate{}, false
	}
	cost, tp := c.s.marginalCost(pool, row.Draw[fi], p), c.s.predTp(e, row, fi)
	if cost > c.s.narrowToLifetime(c.ctrl, c.now, c.headroom, tp) ||
		!permitted(c.rsvs, e, c.now, pool, p, cost, tp) {
		return Candidate{}, false
	}
	pred := row.Pred[fi]
	pred.Tp = tp
	return Candidate{
		Pool:  pool,
		Point: analysis.Point{Pool: ps.name, P: p, Freq: f, N: j.N, Prediction: pred},
		Cost:  cost,
		row:   row,
	}, true
}

// Admit commits the job at the candidate point, deducting its ranks
// from the candidate's pool and its power from the context (and, for
// jobs predicted to outlive an active reservation, from the
// reservation's spare capacity). Admitting a job twice, or beyond the
// free capacity, panics: policies are in-package and this is a logic
// error.
func (c *AdmitContext) Admit(e *entry, cand Candidate) {
	if c.taken(e) {
		panic("sched: job admitted twice in one pass")
	}
	if cand.P > c.free[cand.Pool] || cand.Cost > c.headroom {
		panic("sched: admission exceeds free ranks or headroom")
	}
	backfilled := false
	for _, rsv := range c.rsvs {
		if e == rsv.e {
			continue
		}
		backfilled = true
		if c.now+cand.Tp > rsv.at && c.now < rsv.at+rsv.dur {
			if cand.P > rsv.extraRanks[cand.Pool] || cand.Cost > rsv.extraWatts {
				panic("sched: backfill admission would eat a blocked job's reservation")
			}
			// Shadow probes share the live reservation list; only real
			// admissions spend its spare capacity.
			if !c.shadow {
				rsv.extraRanks[cand.Pool] -= cand.P
				rsv.extraWatts -= cand.Cost
			}
		}
	}
	if !c.shadow {
		j := &e.job
		for _, q := range c.queue {
			if !q.taken && q != e &&
				(q.job.Arrival < j.Arrival || (q.job.Arrival == j.Arrival && q.job.ID < j.ID)) {
				c.bypasses++
				break
			}
		}
		e.taken = true
	}
	c.free[cand.Pool] -= cand.P
	c.headroom -= cand.Cost
	c.admitted = append(c.admitted, admission{e: e, cand: cand, backfilled: backfilled})
}

// --- FIFO + uniform frequency (baseline) ---

type fifoPolicy struct{}

// FIFO is the baseline: jobs start in arrival order at their full
// requested width and each pool's uniform nominal frequency, with
// first-fit backfill past a blocked head. Pools are tried in rank order
// — the lowest free ranks win, which is what a power-oblivious batch
// scheduler with a flat node list does — plus just enough cap awareness
// not to violate the budget outright. No DVFS.
func FIFO() Policy { return fifoPolicy{} }

func (fifoPolicy) Name() string { return "fifo" }
func (fifoPolicy) DVFS() bool   { return false }

func (fifoPolicy) Admit(ctx *AdmitContext) {
	for e := range ctx.Queued() {
		for pi := range ctx.s.pools {
			pool := &ctx.s.pools[pi]
			p := min(e.job.MaxWidth, pool.size)
			if p < e.job.minWidth() || p > ctx.free[pi] {
				continue
			}
			if cand, ok := ctx.At(e, pi, p, pool.spec.BaseFreq); ok {
				ctx.Admit(e, cand)
				break
			}
		}
	}
}

// --- greedy EE-max ---

type eeMaxPolicy struct{}

// EEMax admits in priority order, each job at the operating point —
// across every pool's grid — maximising predicted iso-energy-efficiency
// within the remaining power headroom and free ranks, so the EE-best
// pool wins each admission; later queue entries backfill whatever the
// earlier ones left.
func EEMax() Policy { return eeMaxPolicy{} }

func (eeMaxPolicy) Name() string { return "ee-max" }
func (eeMaxPolicy) DVFS() bool   { return true }

func (eeMaxPolicy) Admit(ctx *AdmitContext) {
	for e := range ctx.Prioritized() {
		if cand := ctx.Best(e, ctx.headroom); cand != nil {
			ctx.Admit(e, *cand)
		}
	}
}

// --- iso-energy-efficiency-aware fair share ---

type fairSharePolicy struct{}

// FairShare divides the available power headroom among the waiting jobs
// in proportion to priority and gives each job the EE-best operating
// point that fits its share — wide high-priority work cannot starve the
// rest of the queue of power the way greedy admission can. A final
// work-conserving pass keeps the cluster busy when every share is too
// thin to start anything.
func FairShare() Policy { return fairSharePolicy{} }

func (fairSharePolicy) Name() string { return "fair-share" }
func (fairSharePolicy) DVFS() bool   { return true }

func (fairSharePolicy) Admit(ctx *AdmitContext) {
	total := 0
	for e := range ctx.Prioritized() {
		total += e.job.priority()
	}
	if total == 0 {
		return
	}
	whole := ctx.headroom
	for e := range ctx.Prioritized() {
		share := units.Watts(float64(whole) * float64(e.job.priority()) / float64(total))
		if share > ctx.headroom {
			share = ctx.headroom
		}
		if cand := ctx.Best(e, share); cand != nil {
			ctx.Admit(e, *cand)
		}
	}
	// Work conservation: if the shares stranded everything, start the
	// best single job the full remaining headroom can carry.
	if len(ctx.admitted) == 0 {
		for e := range ctx.Prioritized() {
			if cand := ctx.Best(e, ctx.headroom); cand != nil {
				ctx.Admit(e, *cand)
				return
			}
		}
	}
}

// ParsePolicy resolves a policy name as the command lines spell it,
// case-insensitively: a shipped policy, or "backfill+<name>" for one
// wrapped in EASY backfill reservations.
func ParsePolicy(name string) (Policy, error) {
	inner, wrapped := strings.CutPrefix(strings.ToLower(name), "backfill+")
	p, ok := Policies()[inner]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (have fifo, ee-max, fair-share, backfill+<name>)", name)
	}
	if wrapped {
		p = Backfill(p)
	}
	return p, nil
}

// Policies returns the shipped policies keyed by name.
func Policies() map[string]Policy {
	return map[string]Policy{
		"fifo":       FIFO(),
		"ee-max":     EEMax(),
		"fair-share": FairShare(),
	}
}
