package sched

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/core"
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

// PerfSlack is the admission width-slack factor: a width is eligible
// only if its best runtime stays within PerfSlack × the job's fastest
// (search). The federation router prices sites with the same rule.
const PerfSlack = 1.3

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
// job should wait. The admissibility floor (belowFloor) answers off-grid
// nearly every job a deep queue holds back: no width fits the free
// ranks and budget, or every one would delay a reserved start.
func (c *AdmitContext) Best(e *entry, budget units.Watts) *Candidate {
	c.s.work.Best++
	if budget <= 0 {
		return nil
	}
	refTp, ok := c.s.referenceTp(e)
	if !ok || (!c.relaxed && c.belowFloor(e, budget)) {
		return nil
	}
	c.s.work.Searches++
	cand, _ := c.search(e, refTp, budget)
	return cand
}

// search walks the per-pool grids of the job's candidate widths × each
// pool's DVFS ladder for the EE-best point (eeBetter) whose marginal
// cost fits the power budget, and reports the stage the walk reached;
// the candidate is nil below stageFeasible, else one of the scheduler's
// scratch pair, valid until the next search. The grid is the per-pool
// enumeration analysis.ForEachOperatingPoint scans offline, its rows
// priced once per job onto the entry (priced) for every edge to rescan.
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
	s, j, now := c.s, &e.res.Job, c.now
	maxTp := units.Seconds(float64(refTp) * PerfSlack)
	best, bestDL := &s.best, &s.bestDL
	stage, foundDL := stageNone, false
	var wbuf [maxWidths]int
	for pi := range s.pools {
		ps := &s.pools[pi]
		for _, p := range j.Widths(wbuf[:0], c.free[pi]) {
			stage = max(stage, stageWidth)
			s.work.Rows++
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
	rows := c.s.work.Rows // a replay is not admission work
	_, stage := c.search(e, refTp, c.headroom)
	c.s.work.Rows = rows
	return stage
}

// poolFloor is one pool's share of a job's admissibility floor: what
// any slack-eligible point of the job in that pool needs at least.
type poolFloor struct {
	p    int           // narrowest slack-eligible width; math.MaxInt when none is
	cost units.Watts   // cheapest marginal draw over the eligible (p, f) points
	tp   units.Seconds // shortest predicted runtime over them
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
// width is evaluated once, into the top spare row, which the entry keeps
// unless the model fails; one priced after referenceTp loosens the floor.
// The workload vector at p is the job's once: a row another pool priced
// at p hands over its W.
func (s *Scheduler) priced(e *entry, pool, p int) (*opcache.Row, units.Seconds) {
	var w core.Workload
	for i := range e.grid {
		if g := &e.grid[i]; g.p == p && g.pool == pool {
			return g.row, g.fastest
		} else if g.p == p && g.row != nil {
			w = g.row.W
		}
	}
	if w.P != p {
		w = e.res.Vector.At(e.res.N, p)
	}
	g := pricedRow{pool: pool, p: p}
	if len(s.spare) == 0 {
		s.spare = append(s.spare, new(opcache.Row))
	}
	if row := s.spare[len(s.spare)-1]; s.pools[pool].cache.Eval(row, w) == nil {
		g.row, g.fastest, s.spare = row, row.FastestTp(), s.spare[:len(s.spare)-1]
	}
	if n := len(s.spareGrids); e.grid == nil && n > 0 {
		e.grid, s.spareGrids = s.spareGrids[n-1], s.spareGrids[:n-1]
	}
	e.grid = append(e.grid, g)
	if e.floor != nil {
		s.loosen(e, g)
	}
	return g.row, g.fastest
}

// referenceTp returns (pricing the job on first use) the unconstrained
// fastest runtime over every pool's full provisioned width range — the
// service-quality yardstick the width-slack rule measures against. A
// model failure anywhere voids the job's search, exactly like the
// per-candidate rule in Best.
//
// The same rows fix the job's admissibility floor: eligibility, cost and
// runtime are a row's, which no cluster state, restart or cap timeline
// moves, so a width priced later only loosens it.
func (s *Scheduler) referenceTp(e *entry) (units.Seconds, bool) {
	if e.refTp != 0 {
		return e.refTp, e.refTp > 0
	}
	j := &e.res.Job
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
	if n := len(s.spareFloors); n > 0 {
		e.floor, s.spareFloors = s.spareFloors[n-1], s.spareFloors[:n-1]
	} else {
		e.floor = make([]poolFloor, len(s.pools))
	}
	for pi := range e.floor {
		e.floor[pi] = poolFloor{p: math.MaxInt, cost: units.Watts(math.Inf(1)), tp: units.Seconds(math.Inf(1))}
	}
	for _, g := range e.grid { // a width only At asked for just loosens the floor
		s.loosen(e, g)
	}
	return ref, true
}

// loosen lowers the floor to cover row g's points if g is slack-eligible.
func (s *Scheduler) loosen(e *entry, g pricedRow) {
	if g.row == nil || g.fastest > units.Seconds(float64(e.refTp)*PerfSlack) {
		return
	}
	fl := &e.floor[g.pool]
	fl.p = min(fl.p, g.p)
	for fi, draw := range g.row.Draw {
		fl.cost = min(fl.cost, s.marginalCost(g.pool, draw, g.p))
		fl.tp = min(fl.tp, g.row.Pred[fi].Tp)
	}
}

// belowFloor reports, and books in work, that no slack-eligible point of
// the priced job passes search's gates here, in O(pools × reservations):
// no pool's floor fits the free ranks and budget, or each that does fails
// a reservation (fresh jobs only: predTp is not a restarted job's rows').
// Every gate is monotone in the floor's (p, cost, Tp), so the floor never
// refuses what the grid walk admits. Free ranks that cap the range at the
// one width referenceTp skips (the top of Job.Widths) price it first, as
// the search would, leaving a model failure there to the search.
func (c *AdmitContext) belowFloor(e *entry, budget units.Watts) bool {
	lo := e.res.minWidth()
	fresh := e.saved == 0 && e.res.Restarts == 0
	reserved := false
	for pi := range e.floor {
		top := min(e.res.MaxWidth, c.s.pools[pi].size)
		hi := min(top, c.free[pi])
		if hi < lo {
			continue
		}
		if hi != lo && hi != top && hi&(hi-1) != 0 {
			if row, _ := c.s.priced(e, pi, hi); row == nil {
				return false
			}
		}
		fl := &e.floor[pi]
		if hi < fl.p || budget < fl.cost {
			continue
		}
		if fresh && !permitted(c.rsvs, e, c.now, pi, fl.p, fl.cost, fl.tp) {
			reserved = true
			continue
		}
		return false
	}
	if reserved {
		c.s.work.FloorReserved++
	} else {
		c.s.work.FloorFit++
	}
	return true
}
