package fed

import (
	"fmt"
	"strings"

	"repro/internal/sched"
	"repro/internal/units"
)

// joulesPerKWh converts window energy (J) × carbon intensity (g/kWh)
// to grams of CO₂eq.
const joulesPerKWh = 3.6e6

// RouteDecision is one row of the routing table: where a job went and
// why.
type RouteDecision struct {
	Job  int
	App  string
	Site string
	// EE and Tp are the chosen site's quoted energy-efficiency and
	// predicted runtime (zero for no-fit fallbacks).
	EE float64
	Tp units.Seconds
	// Reason names the routing rule that fired ("ee-best", "jct-min",
	// "round-robin", "spill: …", "no-fit: …").
	Reason string
}

// SiteResult is one site's share of a federated run.
type SiteResult struct {
	Site   string
	Weight float64
	// Jobs counts the jobs routed to the site.
	Jobs int
	// Carbon is the site's emissions in gCO₂eq: per-budget-window
	// energy × the site's intensity over that window. Zero without a
	// carbon signal.
	Carbon float64
	// Result is the site scheduler's full accounting; Result.Plan is
	// the site's final (post-negotiation) cap timeline.
	Result sched.Result
}

// Result is the merged accounting of one federated run.
type Result struct {
	// Split, Route and Budget label the run: the policy pair and the
	// global budget timeline in capplan.ParsePlan form.
	Split, Route, Budget string
	// GuaranteeFrac is the effective λ the windows were divided with.
	GuaranteeFrac float64
	// Sites holds per-site results in Config.Sites order.
	Sites []SiteResult
	// Routing is the frontend's full decision table, in routing order;
	// Spills counts decisions diverted by the spill rule.
	Routing []RouteDecision
	Spills  int

	// Makespan is the latest site makespan; TotalEnergy and Carbon sum
	// the sites.
	Makespan    units.Seconds
	TotalEnergy units.Joules
	Carbon      float64
	// EnergyPerJob is the completed-job mean of attributed energy
	// across the federation.
	EnergyPerJob units.Joules
	// Completed, Rejected and JobsLost partition terminal job states;
	// CapViolations sums every site's audit.
	Completed, Rejected, JobsLost int
	CapViolations                 int
}

// merge assembles the federated Result from the finished sites.
func (f *Federation) merge() Result {
	r := Result{
		Split:         f.cfg.Split.Name(),
		Route:         f.cfg.Route.Name(),
		Budget:        f.cfg.Budget.String(),
		GuaranteeFrac: f.lambda,
		Routing:       f.decisions,
		Spills:        f.spills,
	}
	var energy units.Joules
	for _, sr := range f.sites {
		s := SiteResult{
			Site:   sr.site.Name,
			Weight: float64(sr.ranks),
			Jobs:   len(sr.jobs),
			Result: sr.res,
		}
		if sr.intensity != nil {
			for i, w := range sr.res.Windows {
				if i >= len(sr.intensity) {
					break
				}
				s.Carbon += float64(w.Energy) * sr.intensity[i] / joulesPerKWh
			}
		}
		r.Sites = append(r.Sites, s)

		if sr.res.Makespan > r.Makespan {
			r.Makespan = sr.res.Makespan
		}
		r.TotalEnergy += sr.res.TotalEnergy
		r.Carbon += s.Carbon
		r.Completed += sr.res.Completed
		r.Rejected += sr.res.Rejected
		r.JobsLost += sr.res.JobsLost
		r.CapViolations += sr.res.CapViolations
		energy += units.Joules(float64(sr.res.EnergyPerJob) * float64(sr.res.Completed))
	}
	if r.Completed > 0 {
		r.EnergyPerJob = units.Joules(float64(energy) / float64(r.Completed))
	}
	return r
}

// String renders a one-line federation summary over a per-site table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "federation %s × %s, budget %s: %d done, %d rejected, %d lost, makespan %v, energy %v, carbon %.1f g, violations %d, spills %d\n",
		r.Split, r.Route, r.Budget, r.Completed, r.Rejected, r.JobsLost,
		r.Makespan, r.TotalEnergy, r.Carbon, r.CapViolations, r.Spills)
	b.WriteString(r.SiteTable())
	return b.String()
}

// SiteTable renders the per-site accounting.
func (r Result) SiteTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %5s %4s %4s %9s %12s %10s %6s %8s\n",
		"site", "jobs", "done", "rej", "lost", "makespan", "energy", "carbon[g]", "viol", "wait")
	for _, s := range r.Sites {
		fmt.Fprintf(&b, "%-10s %6d %5d %4d %4d %9v %12v %10.1f %6d %8v\n",
			s.Site, s.Jobs, s.Result.Completed, s.Result.Rejected,
			s.Result.JobsLost, s.Result.Makespan, s.Result.TotalEnergy,
			s.Carbon, s.Result.CapViolations, s.Result.MeanWait)
	}
	return b.String()
}

// RoutingTable renders the frontend's decision table.
func (r Result) RoutingTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %-4s %-10s %7s %9s  %s\n", "job", "app", "site", "EE", "tp", "reason")
	for _, d := range r.Routing {
		fmt.Fprintf(&b, "%4d %-4s %-10s %7.4f %9v  %s\n", d.Job, d.App, d.Site, d.EE, d.Tp, d.Reason)
	}
	return b.String()
}

// ComparisonTable renders a head-to-head over policy combinations run
// on the same sites and trace — what schedrun -sites prints.
func ComparisonTable(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-4s %9s %5s %4s %4s %12s %12s %10s %6s %7s\n",
		"split", "route", "makespan", "done", "rej", "lost", "energy", "energy/job", "carbon[g]", "viol", "spills")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s %-4s %9v %5d %4d %4d %12v %12v %10.1f %6d %7d\n",
			r.Split, r.Route, r.Makespan, r.Completed, r.Rejected, r.JobsLost,
			r.TotalEnergy, r.EnergyPerJob, r.Carbon, r.CapViolations, r.Spills)
	}
	return b.String()
}
