package sched

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/opcache"
	"repro/internal/units"
)

// Candidate is one admissible (pool, p, f) operating point for a job,
// with the scheduler-side power cost attached.
type Candidate struct {
	// Pool indexes Config.Platform.Pools: the node pool whose Spec
	// priced this point and whose free ranks the job would occupy. A
	// job's rank set never spans pools — the model's parameter vector is
	// per node type.
	Pool int
	analysis.Point
	// Cost is the marginal sustained draw of starting the job: its rank
	// set's worst-case draw minus the parked idle power those ranks
	// were already burning. The absolute draw envelope is computed (and
	// memoized) by internal/opcache; see opcache's drawPerRank for the
	// paper Eq. 8–9 derivation and why the bound guarantees zero cap
	// violations.
	Cost units.Watts
	// row is the ladder row the point was priced from; dispatch runs the
	// job from this same row, so control and admission can never
	// disagree about a job's operating points.
	row *opcache.Row
}

// PerfSlack returns the effective admission width-slack factor of a
// Config.PerfSlack value: zero means 1.3, anything below 1 means 1. The
// federation router prices sites with the same rule.
func PerfSlack(v float64) float64 {
	switch {
	case v == 0:
		return 1.3
	case v < 1:
		return 1
	default:
		return v
	}
}

// marginalCost converts a cached absolute job draw (opcache.Row.Draw) to
// the admission currency measured against headroom: the draw minus the
// parked idle power the job's p ranks of the given pool already burn.
func (s *Scheduler) marginalCost(pool int, draw units.Watts, p int) units.Watts {
	m := draw - units.Watts(float64(p)*float64(s.pools[pool].idleMin))
	if m < 0 {
		m = 0
	}
	return m
}

// The gates a candidate meets in the grid search, in order; a search's
// stage is the last gate any of its candidates cleared.
const (
	stageUnpriced = iota - 2 // no width of any pool evaluates (blockStage only)
	stageModel               // a grid row failed to evaluate
	stageNone                // no candidate width fits the free ranks
	stageWidth               // a width fits
	stageSlack               // … within the performance slack
	stageBudget              // … at a ladder point the budget affords
	stagePlan                // … over the job's whole predicted lifetime
	stageFeasible            // … without delaying a reserved start
)

// eeBetter reports whether a beats b as an admission point: the
// admission objective is maximum iso-energy-efficiency. Ties cascade
// through energy and runtime and finally fall to lower frequency and
// smaller p, so a grid scan always selects one deterministic winner
// regardless of enumeration order — admission decisions made from this
// comparison replay identically across runs.
//
// EE is compared in half-percent bins rather than raw floats: EE
// differences below that are model noise (EP's EE is ≈ 1 at every
// frequency, FT's moves in the fourth decimal across the ladder), and
// latching onto them would trade real joules for phantom efficiency.
// Within a bin, lower predicted energy wins — EE picks the shape
// (parallelism, where overhead genuinely moves EE), energy picks the
// frequency.
func eeBetter(a, b analysis.Point) bool {
	ea, eb := math.Round(a.EE*200), math.Round(b.EE*200)
	switch {
	case ea != eb:
		return ea > eb
	case a.Ep != b.Ep:
		return a.Ep < b.Ep
	case a.Tp != b.Tp:
		return a.Tp < b.Tp
	case a.Freq != b.Freq:
		return a.Freq < b.Freq
	default:
		return a.P < b.P
	}
}

// Best returns the job's EE-best operating point (eeBetter) whose
// marginal power cost fits budget, by the rules of search — in the
// scheduler's scratch, valid until the next search — or nil when the
// job should wait. Most searches of a deep queue end in "no width fits
// the free ranks": the admissibility floor (belowFloor) answers those
// off-grid.
func (c *AdmitContext) Best(e *entry, budget units.Watts) *Candidate {
	if budget <= 0 {
		return nil
	}
	refTp, ok := c.s.referenceTp(e)
	if !ok || (!c.relaxed && c.s.belowFloor(e, c.free, budget)) {
		return nil
	}
	cand, _ := c.search(e, refTp, budget)
	return cand
}

// search walks the per-pool grids of the job's candidate widths × each
// pool's DVFS ladder for the EE-best point (eeBetter) whose marginal
// cost fits the power budget, and reports the stage the walk reached;
// the candidate is nil below stageFeasible, else one of the scheduler's
// scratch pair, valid until the next search. The grid is the per-pool
// enumeration analysis.ForEachOperatingPoint scans offline,
// read off the job's entry (priced): every (pool, n, p) row is evaluated
// once per job lifetime and every later scheduling edge — the shadow
// walk re-pricing the head at each future state included — scans it.
//
// Pools are scanned in platform order, so equal points keep the earlier
// pool (the winner is the EE-best pool; strictly better later-pool
// points do displace earlier ones). Three rules shape the selection
// before eeBetter decides:
//
//   - Width slack. Maximising EE alone degenerates to p=1 (a serial
//     run has no parallel overhead, EE = 1) and would trade arbitrary
//     runtime for marginal energy. A (pool, width) is eligible only if
//     its best runtime over the pool's ladder stays within PerfSlack ×
//     the job's unconstrained fastest runtime — the best any pool's
//     full width range achieves on an empty cluster, so congestion
//     cannot erode the reference (and a slow pool cannot grade itself
//     on a curve). The rule binds shape, not frequency: pool and width
//     are fixed for the job's lifetime, while a low admission frequency
//     is a recoverable loan the governor repays by boosting the job up
//     the ladder as watts free.
//   - Waiting beats crawling. When no eligible point fits the budget,
//     the job is not admitted: it waits for capacity rather than
//     locking in a degraded shape. (Molding the job narrower — or onto
//     a slow pool — the moment ranks are scarce looks attractive
//     locally but loses fleet-wide: the degraded run occupies ranks
//     and watts that delay every other queued job, a price the per-job
//     comparison cannot see.) A relaxed pass drops the rule when the
//     whole cluster is idle and waiting could never help — see
//     Scheduler.tryAdmit.
//   - Deadlines. Among eligible points, ones that meet the job's
//     deadline (when it has one) win over ones that do not.
//
// While backfill reservations are active (rsvs non-empty), a fourth
// rule applies: a candidate whose predicted completion outlives a
// reserved start must fit inside that reservation's spare ranks (of its
// own pool) and watts, so backfilled work can never delay a blocked,
// reserved job (backfill.go).
//
// Under a cap timeline (Config.Plan) a fifth rule binds: the
// candidate's conservative draw must fit the *minimum* cap over its
// predicted lifetime, not just the budget at now — expressed as a
// per-candidate narrowing of the budget (narrowToLifetime). A job is
// never started into a budget window it cannot fit.
func (c *AdmitContext) search(e *entry, refTp units.Seconds, budget units.Watts) (*Candidate, int) {
	s, j, now := c.s, &e.job, c.now
	maxTp := units.Seconds(float64(refTp) * PerfSlack(s.cfg.PerfSlack))
	best, bestDL := &s.best, &s.bestDL
	stage, foundDL := stageNone, false
	var wbuf [maxWidths]int
	for pi := range s.pools {
		ps := &s.pools[pi]
		for _, p := range j.Widths(wbuf[:0], c.free[pi]) {
			stage = max(stage, stageWidth)
			row, fastest := s.priced(e, pi, p)
			if row == nil {
				// Match the offline enumeration: a model failure anywhere in
				// the grid voids the whole search rather than silently
				// shrinking it.
				return nil, stageModel
			}
			if !c.relaxed && fastest > maxTp {
				continue
			}
			stage = max(stage, stageSlack)
			for fi := range ps.ladder {
				cost := s.marginalCost(pi, row.Draw[fi], p)
				if cost > budget {
					continue
				}
				stage = max(stage, stageBudget)
				// Restarted jobs are priced at their remaining work plus
				// the restart surcharge; predTp is the full Tp otherwise.
				tp := s.predTp(e, row, fi)
				if cost > s.narrowToLifetime(c.ctrl, now, budget, tp) {
					continue
				}
				stage = max(stage, stagePlan)
				if !permitted(c.rsvs, e, now, pi, p, cost, tp) {
					continue
				}
				pred := row.Pred[fi]
				pred.Tp = tp
				cand := Candidate{
					Pool:  pi,
					Point: analysis.Point{Pool: ps.name, P: p, Freq: ps.ladder[fi], N: j.N, Prediction: pred},
					Cost:  cost,
					row:   row,
				}
				if stage < stageFeasible || eeBetter(cand.Point, best.Point) {
					*best, stage = cand, stageFeasible
				}
				if j.Deadline > 0 && now+tp <= j.Arrival+j.Deadline {
					if !foundDL || eeBetter(cand.Point, bestDL.Point) {
						*bestDL, foundDL = cand, true
					}
				}
			}
		}
	}
	if foundDL {
		return bestDL, stageFeasible
	}
	if stage < stageFeasible {
		return nil, stage
	}
	return best, stage
}

// blockStage classifies why a queued job was not admitted at the edge
// that just settled: it repeats the search, unfiltered, against the
// context's cluster state and whole headroom, and returns the last gate
// any candidate cleared (stageFeasible: a point exists and the policy
// declined it). Telemetry-only — schedTelemetry.blockReason words the
// result — so the extra grid walk costs nothing when tracing is off;
// the rows are on the entry either way.
func (c *AdmitContext) blockStage(e *entry) int {
	refTp, ok := c.s.referenceTp(e)
	if !ok {
		return stageUnpriced
	}
	_, stage := c.search(e, refTp, c.headroom)
	return stage
}

// poolFloor is one pool's share of a job's admissibility floor: what
// any slack-eligible point of the job in that pool needs at least.
type poolFloor struct {
	p    int         // narrowest slack-eligible width; math.MaxInt when none is
	cost units.Watts // cheapest marginal draw over the eligible (p, f) points
}

// pricedRow is one (pool, width) row of a job's grid: the row the entry
// owns and its best runtime over the ladder.
type pricedRow struct {
	pool, p int
	row     *opcache.Row // nil: the model fails at this width
	fastest units.Seconds
}

// priced returns the job's ladder row at width p of the pool with its
// fastest runtime, or a nil row where the model does not evaluate. A
// width is evaluated once, into a row the entry owns — by referenceTp,
// or when free ranks cap a search at a width outside its set — and
// every later search scans e.grid.
func (s *Scheduler) priced(e *entry, pool, p int) (*opcache.Row, units.Seconds) {
	for i := range e.grid {
		if g := &e.grid[i]; g.p == p && g.pool == pool {
			return g.row, g.fastest
		}
	}
	g := pricedRow{pool: pool, p: p}
	if row := new(opcache.Row); s.pools[pool].cache.Eval(row, e.job.Vector, e.job.N, p) == nil {
		g.row, g.fastest = row, row.FastestTp()
	}
	e.grid = append(e.grid, g)
	return g.row, g.fastest
}

// referenceTp returns (pricing the job on first use) the unconstrained
// fastest runtime over every pool's full provisioned width range — the
// service-quality yardstick the width-slack rule measures against. A
// model failure anywhere voids the job's search, exactly like the
// per-candidate rule in Best.
//
// The same rows fix the job's admissibility floor for its lifetime:
// slack eligibility compares a row to the reference, and a point's cost
// is a property of the row — neither moves with cluster state, restarts
// or the cap timeline.
func (s *Scheduler) referenceTp(e *entry) (units.Seconds, bool) {
	if e.refTp != 0 {
		return e.refTp, e.refTp > 0
	}
	j := &e.job
	e.refTp = -1
	var wbuf [maxWidths]int
	ref := units.Seconds(0)
	for pi := range s.pools {
		for _, p := range j.Widths(wbuf[:0], s.pools[pi].size) {
			row, fastest := s.priced(e, pi, p)
			if row == nil {
				return 0, false
			}
			if ref == 0 || fastest < ref {
				ref = fastest
			}
		}
	}
	if ref <= 0 {
		return 0, false
	}
	e.refTp = ref
	maxTp := units.Seconds(float64(ref) * PerfSlack(s.cfg.PerfSlack))
	e.floor = make([]poolFloor, len(s.pools))
	for pi := range e.floor {
		e.floor[pi] = poolFloor{p: math.MaxInt, cost: units.Watts(math.Inf(1))}
	}
	for _, g := range e.grid { // a width only At asked for just loosens the floor
		if g.row == nil || g.fastest > maxTp {
			continue
		}
		fl := &e.floor[g.pool]
		fl.p = min(fl.p, g.p)
		for _, draw := range g.row.Draw {
			fl.cost = min(fl.cost, s.marginalCost(g.pool, draw, g.p))
		}
	}
	return ref, true
}

// belowFloor reports that no slack-eligible point of a priced job can
// fit the given free ranks and budget — a necessary condition read off
// the cached floor in O(pools), never a verdict the grid walk would
// contradict. Only the widths referenceTp priced are covered: free ranks
// that cap the range at an unpriced width (neither a power of two nor a
// bound of the job's range) send the search to the grid.
func (s *Scheduler) belowFloor(e *entry, free []int, budget units.Watts) bool {
	lo := e.job.minWidth()
	for pi, fl := range e.floor {
		top := min(e.job.MaxWidth, s.pools[pi].size)
		hi := min(top, free[pi])
		if hi < lo {
			continue
		}
		if hi != lo && hi != top && hi&(hi-1) != 0 {
			return false
		}
		if hi >= fl.p && budget >= fl.cost {
			return false
		}
	}
	return true
}
