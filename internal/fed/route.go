package fed

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/opcache"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Quote is one site's priced offer for a job: the best predicted
// operating point the site's pools could run it at (ignoring transient
// congestion — the site's own admission re-prices against live state),
// plus the router's backlog estimate for the site.
type Quote struct {
	// Site indexes Config.Sites.
	Site int
	// OK reports the site quotes at least one eligible operating point
	// (a width whose fastest runtime stays within the perf-slack factor
	// of the job's fastest runtime across the whole federation — a slow
	// site cannot grade itself on a curve).
	OK bool
	// EE, Tp and P describe the EE-best eligible point.
	EE float64
	Tp units.Seconds
	P  int
	// Fastest is the quickest eligible runtime the site offers.
	Fastest units.Seconds
	// Backlog is the router's estimate of how long the site needs to
	// clear the occupancy already routed to it: outstanding work
	// (Σ Tp·P/ranks, drained between decisions at the site's drain
	// rate) divided by the site's drain factor at the decision time —
	// its cap headroom over the idle floor relative to the
	// best-provisioned site, in (0, 1]. A throttled site takes
	// proportionally longer to clear the same work, which is what
	// couples the budget split's cap shaping back into placement.
	Backlog units.Seconds
}

// RoutePolicy picks the site for one job from one Quote per site (in
// site order). Pick returns the chosen site's index, or a negative index
// to decline (the router then falls back to the widest site, which
// records the rejection). A reason prefixed "spill:" counts as a spill
// in the merged result. Policies may carry state across calls
// (round-robin does), so one instance serves exactly one Run. quotes is
// the router's buffer, valid only during the call.
type RoutePolicy interface {
	Name() string
	Pick(quotes []Quote) (site int, reason string)
}

// spillAfter is the backlog threshold the EE route's spill rule fires at.
const spillAfter = units.Seconds(1.0)

// RouteEE routes each job to the site quoting the best predicted
// energy-efficiency, with a spill rule: when that site's backlog
// exceeds spillAfter (1 s), the job spills to the next-best site whose
// backlog is under the threshold (staying put if every alternative is
// just as saturated).
func RouteEE() RoutePolicy { return routeEE{} }

type routeEE struct{}

func (routeEE) Name() string { return "ee" }
func (routeEE) Pick(quotes []Quote) (int, string) {
	best := bestEE(quotes, -1, units.Seconds(math.Inf(1)))
	if best < 0 {
		return -1, ""
	}
	if b := quotes[best].Backlog; b > spillAfter {
		if alt := bestEE(quotes, best, spillAfter); alt >= 0 {
			return quotes[alt].Site, fmt.Sprintf("spill: best site backlog %v over %v", b, spillAfter)
		}
	}
	return quotes[best].Site, "ee-best"
}

// bestEE returns the eligible quote other than skip with backlog at most
// maxBacklog and the highest EE, the earlier site on a tie; -1 if none.
func bestEE(quotes []Quote, skip int, maxBacklog units.Seconds) int {
	best := -1
	for i := range quotes {
		q := &quotes[i]
		if i != skip && q.OK && q.Backlog <= maxBacklog && (best < 0 || q.EE > quotes[best].EE) {
			best = i
		}
	}
	return best
}

// RouteJCT routes each job to the site with the earliest predicted
// completion: backlog plus the site's fastest eligible runtime. Load
// balancing is implicit — a saturated site prices itself out.
func RouteJCT() RoutePolicy { return routeJCT{} }

type routeJCT struct{}

func (routeJCT) Name() string { return "jct" }
func (routeJCT) Pick(quotes []Quote) (int, string) {
	bestSite, found := -1, false
	var bestDone units.Seconds
	for _, q := range quotes {
		if !q.OK {
			continue
		}
		done := q.Backlog + q.Fastest
		if !found || done < bestDone {
			bestSite, bestDone, found = q.Site, done, true
		}
	}
	if !found {
		return -1, ""
	}
	return bestSite, "jct-min"
}

// RouteRR cycles jobs across the sites that quote an eligible point —
// the load-spreading baseline the predictive policies are measured
// against.
func RouteRR() RoutePolicy { return &routeRR{} }

type routeRR struct{ next int }

func (*routeRR) Name() string { return "rr" }
func (r *routeRR) Pick(quotes []Quote) (int, string) {
	n := len(quotes)
	for k := 0; k < n; k++ {
		i := (r.next + k) % n
		if quotes[i].OK {
			r.next = i + 1
			return i, "round-robin"
		}
	}
	return -1, ""
}

// RoutePolicies returns constructors for the built-in routing policies
// by name — fresh instances, since policies may carry per-run state.
func RoutePolicies() map[string]func() RoutePolicy {
	return map[string]func() RoutePolicy{
		"ee":  RouteEE,
		"jct": RouteJCT,
		"rr":  RouteRR,
	}
}

// route is the ingest frontend: a deterministic pre-simulation pass
// assigning every job to a site. Jobs are considered in (arrival, ID)
// order, each decided at its arrival time: a decision prices every
// site's candidate rows once, asks the route policy, and updates the
// chosen site's backlog estimate. Jobs no site can quote fall back to
// the site with the widest pool, whose scheduler records the rejection
// (exactly as a single cluster would have).
func (f *Federation) route(jobs []sched.Job) error {
	ordered := append([]sched.Job(nil), jobs...)
	sort.SliceStable(ordered, func(a, b int) bool {
		if ordered[a].Arrival != ordered[b].Arrival {
			return ordered[a].Arrival < ordered[b].Arrival
		}
		return ordered[a].ID < ordered[b].ID
	})
	seen := make(map[int]bool, len(ordered))
	for _, j := range ordered {
		if seen[j.ID] {
			return fmt.Errorf("fed: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
	}

	if f.cfg.Telemetry != nil {
		// Routing happens before any kernel exists; detach any stale
		// clock so EvRoute events carry the arrival stamp set below.
		f.cfg.Telemetry.SetClock(nil)
	}
	// work is the routing ledger: per site, the full-speed occupancy
	// (Σ Tp·P/ranks) routed there and not yet drained. Between
	// decisions each site drains at its drain rate — the cap-headroom
	// fraction of the best-provisioned site — so quotes price a
	// throttled site's queue honestly even across plan breakpoints.
	work := make([]units.Seconds, len(f.sites))
	f.decisions = slices.Grow(f.decisions, len(ordered))
	var last units.Seconds
	for _, j := range ordered {
		if j.Arrival > last {
			for i := range work {
				if d := f.drained(i, last, j.Arrival); d >= work[i] {
					work[i] = 0
				} else {
					work[i] -= d
				}
			}
			last = j.Arrival
		}
		quotes, any := f.quotes(j, work, j.Arrival)
		site, reason := -1, ""
		if any {
			site, reason = f.cfg.Route.Pick(quotes)
		}
		dec := RouteDecision{Job: j.ID, App: j.Vector.Name, Reason: reason}
		if site >= 0 && site < len(quotes) {
			q := quotes[site]
			dec.EE, dec.Tp = q.EE, q.Tp
			work[site] += units.Seconds(float64(q.Tp) * float64(q.P) / float64(f.sites[site].ranks))
			if strings.HasPrefix(reason, "spill:") {
				f.spills++
			}
		} else {
			site = f.widestSite()
			dec.Reason = "no-fit: no site quotes an eligible operating point"
		}
		dec.Site = f.sites[site].site.Name
		f.decisions = append(f.decisions, dec)
		if f.cfg.Telemetry != nil {
			f.cfg.Telemetry.Emit(telemetry.Event{
				T: j.Arrival, Kind: telemetry.EvRoute, Job: j.ID,
				App: j.Vector.Name, Site: dec.Site, EE: dec.EE,
				Dur: dec.Tp, Reason: dec.Reason,
			})
		}
	}
	// Each site's jobs, in routing order, are an exact-size part of one array.
	all := make([]sched.Job, 0, len(ordered))
	for _, sr := range f.sites {
		start := len(all)
		for i, dec := range f.decisions {
			if dec.Site == sr.site.Name {
				all = append(all, ordered[i])
			}
		}
		sr.jobs = all[start:len(all):len(all)]
	}
	return nil
}

// pricedRow is one (router cache, width) evaluation of the job being
// routed; ok is false when the model rejects the point.
type pricedRow struct {
	cache *opcache.Cache
	p     int
	ok    bool
	row   opcache.Row
}

// offer is one (site, pool, width) of the job, priced by f.rows[row].
type offer struct{ site, row int }

// quotes prices the job at every site: each (router cache, width) row
// once into f.rows, read by every site running that cache, the width's
// workload vector copied from its first row. The eligibility reference
// is the fastest runtime any site's pools offer at any width — shared
// across sites, mirroring admission's width-slack rule, so a uniformly
// slow site is simply not eligible for a latency-critical shape. Returns
// any=false when no width of any pool evaluates at all.
func (f *Federation) quotes(j sched.Job, work []units.Seconds, now units.Seconds) ([]Quote, bool) {
	var ref units.Seconds
	found := false
	n := 0
	f.offers = f.offers[:0]
	for si, sr := range f.sites {
		for pi, pool := range sr.site.Platform.Pools {
			f.widths = j.Widths(f.widths[:0], pool.Ranks())
			for _, p := range f.widths {
				k, w := 0, -1
				for ; k < n && (f.rows[k].cache != sr.cache[pi] || f.rows[k].p != p); k++ {
					if f.rows[k].p == p {
						w = k
					}
				}
				f.offers = append(f.offers, offer{site: si, row: k})
				if k < n {
					continue
				}
				if n == len(f.rows) {
					f.rows = append(f.rows, pricedRow{})
				}
				pr := &f.rows[n]
				n++
				pr.cache, pr.p = sr.cache[pi], p
				if w < 0 {
					pr.ok = pr.cache.Eval(&pr.row, j.Vector.At(j.N, p)) == nil
				} else {
					pr.ok = pr.cache.Eval(&pr.row, f.rows[w].row.W) == nil
				}
				if !pr.ok {
					continue
				}
				if ft := pr.row.FastestTp(); !found || ft < ref {
					ref, found = ft, true
				}
			}
		}
	}
	if !found {
		return nil, false
	}
	maxTp := units.Seconds(float64(ref) * sched.PerfSlack)

	refHead := f.maxHeadroom(now)
	k := 0
	for si, sr := range f.sites {
		drain := f.headroom(si, now) / refHead
		q := Quote{Site: si, Backlog: units.Seconds(float64(work[si]) / drain)}
		headW := float64(sr.plan.CapAt(now)) - float64(sr.idleFloor)
		for ; k < len(f.offers) && f.offers[k].site == si; k++ {
			pr := &f.rows[f.offers[k].row]
			if !pr.ok {
				continue
			}
			row, p := &pr.row, pr.p
			idleRank := float64(pr.cache.ParamsAt(0).PsysIdle)
			// A point is feasible only if the cluster fits under the
			// site's cap in force right now with the job running:
			// draw ≤ cap − idle floor + the idle share of the job's
			// own ranks (running ranks stop parking). A squeezed
			// site's wide and high-frequency points drop out, so its
			// feasible-fastest runtime honestly prices the throttle —
			// and a site squeezed past eligibility is simply not OK
			// until its window recovers.
			budget := headW + float64(p)*idleRank
			var ft units.Seconds
			feasible := false
			for fi := range row.Pred {
				if float64(row.Draw[fi]) > budget {
					continue
				}
				if !feasible || row.Pred[fi].Tp < ft {
					ft, feasible = row.Pred[fi].Tp, true
				}
			}
			if !feasible || ft > maxTp {
				continue
			}
			if !q.OK || ft < q.Fastest {
				q.Fastest = ft
			}
			for fi := range row.Pred {
				if float64(row.Draw[fi]) > budget {
					continue
				}
				if !q.OK || row.Pred[fi].EE > q.EE {
					q.OK = true
					q.EE = row.Pred[fi].EE
					q.Tp = row.Pred[fi].Tp
					q.P = p
				}
			}
		}
		f.quoted[si] = q
	}
	return f.quoted, true
}

// headroom is site i's job-power headroom at sim time t under its
// initial plan: the cap in force minus the site's idle floor, floored
// at 1 W so a site parked exactly at idle still quotes a finite (if
// enormous) backlog. On the dynamic path un-negotiated windows carry
// their guaranteed floors here — conservative, and identical for every
// run of the same configuration, so routing stays deterministic.
func (f *Federation) headroom(i int, t units.Seconds) float64 {
	h := float64(f.sites[i].plan.CapAt(t)) - float64(f.sites[i].idleFloor)
	if h < 1 {
		h = 1
	}
	return h
}

// maxHeadroom is the best headroom any site offers at sim time t — the
// drain-rate reference the per-site factors normalise against.
func (f *Federation) maxHeadroom(t units.Seconds) float64 {
	best := 1.0
	for i := range f.sites {
		if h := f.headroom(i, t); h > best {
			best = h
		}
	}
	return best
}

// drained integrates site i's drain rate over [t0, t1) segment by
// segment — how much routed work the site clears between two routing
// decisions. Caps (and so drain rates) are constant within a grid
// segment, which makes the integral exact against the initial plans.
func (f *Federation) drained(i int, t0, t1 units.Seconds) units.Seconds {
	var total float64
	for g := range f.cuts {
		lo, hi := f.cuts[g], f.segEnd(g)
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		if hi <= lo {
			continue
		}
		total += float64(hi-lo) * f.headroom(i, lo) / f.maxHeadroom(lo)
	}
	return units.Seconds(total)
}

// widestSite returns the site with the largest single pool — the
// fallback destination for jobs no site can quote, chosen so "too wide
// everywhere" rejections land where the width deficit is smallest.
func (f *Federation) widestSite() int {
	best, bestPool := 0, 0
	for i, sr := range f.sites {
		if sr.largestPool > bestPool {
			best, bestPool = i, sr.largestPool
		}
	}
	return best
}
