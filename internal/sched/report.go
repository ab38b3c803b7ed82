package sched

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/units"
)

// Result is the fleet-level accounting of one schedule.
type Result struct {
	Policy string
	// Platform labels the node-pool layout the schedule ran on (the
	// spec name for a one-pool platform, "a:N+b:M" for mixed ones).
	Platform string
	Ranks    int
	// Cap is the power budget in force at t = 0: the constant cap, or
	// the cap timeline's initial window.
	Cap units.Watts
	// Plan labels the cap timeline in ParsePlan form; empty when the
	// run was given a bare Config.Cap.
	Plan string
	// Windows holds per-budget-window accounting whenever Plan is set
	// (capped to the sampled makespan): energy, violations, and cap
	// utilisation per window.
	Windows []WindowStat
	// CapUtilisation is the time-weighted fraction of the budget the
	// cluster actually drew over the sampled makespan, ∫P dt / ∫cap dt
	// (plan runs only; zero otherwise).
	CapUtilisation float64

	// Jobs holds every submitted job's record, ordered by ID.
	Jobs []JobResult

	// Makespan is the completion time of the last job (virtual time).
	Makespan units.Seconds
	// Completed and Rejected partition the terminal states.
	Completed, Rejected int
	// Throughput is completed jobs per second of makespan.
	Throughput float64

	// TotalEnergy is everything the cluster dissipated while sampled:
	// job-attributed energy plus ParkedEnergy (idle draw of unassigned
	// ranks). EnergyPerJob is the completed-job mean of attributed
	// energy; MeanEE the completed-job mean of admitted model EE.
	TotalEnergy  units.Joules
	ParkedEnergy units.Joules
	EnergyPerJob units.Joules
	MeanEE       float64

	// MeanWait averages queue waits over completed jobs; MaxWait and
	// P95Wait are the tail of the same distribution — the starvation
	// indicators a backfill reservation bounds.
	MeanWait units.Seconds
	MaxWait  units.Seconds
	P95Wait  units.Seconds
	// BackfilledJobs counts jobs admitted past a blocked queue head
	// under an active reservation; HeadBypasses counts every admission
	// that jumped an earlier-arrived waiter (with or without a
	// reservation protecting it).
	BackfilledJobs int
	HeadBypasses   int
	// DeadlineMisses counts jobs with a deadline that did not finish by
	// it: completed late, rejected or lost.
	DeadlineMisses int

	// Governor audit: power samples taken and samples exceeding the cap
	// (the sums of the window ledger), peak and time-weighted mean
	// measured draw, and total frequency retunes applied.
	Samples       int
	CapViolations int
	PeakPower     units.Watts
	MeanPower     units.Watts
	FreqChanges   int

	// Fault-injection accounting (zero without Config.Faults).
	// Failures/Repairs count rank fail and repair events; Kills counts
	// attempts aborted mid-run; Restarts counts re-dispatches of killed
	// jobs; JobsLost counts jobs that exhausted the retry cap (or were
	// stranded after running); Checkpoints counts periodic checkpoints.
	Failures, Repairs, Kills, Restarts, JobsLost, Checkpoints int
	// LostWork sums the discarded model runtime across kills;
	// WastedEnergy the measured energy of killed attempts.
	LostWork     units.Seconds
	WastedEnergy units.Joules
	// Availability is the rank-time fraction the cluster was healthy:
	// 1 − downtime / (ranks × makespan), with still-open failures
	// clamped at the makespan. Exactly 1 without fault injection.
	Availability float64
}

// collect closes the ledger after the kernel drains: it starts from
// s.res (every count booked where it happened) and adds what only a
// finished run can know. The float folds stay here, in ID order —
// summing in completion order moves the last bit of TotalEnergy.
func (s *Scheduler) collect() Result {
	res := s.res
	res.Policy = s.cfg.Policy.Name()
	res.Platform = s.cfg.Platform.String()
	res.Ranks = s.cl.Ranks()
	res.Cap = s.capPlan.CapAt(0)
	res.Makespan = s.cl.Wall()
	res.TotalEnergy = res.ParkedEnergy
	res.MeanPower = units.Power(s.gov.energy, s.gov.last) // 0 if never sampled
	res.Jobs = s.results
	waits := make([]units.Seconds, 0, res.Completed)
	var waited units.Seconds
	var energy units.Joules
	var ee float64
	for i := range res.Jobs {
		r := &res.Jobs[i]
		res.TotalEnergy += r.Energy
		res.FreqChanges += r.FreqChanges
		res.LostWork += r.LostWork
		res.WastedEnergy += r.WastedEnergy
		if r.State == Done {
			waits, waited = append(waits, r.Wait), waited+r.Wait
			energy += r.Energy
			ee += r.ModelEE
		}
	}
	for _, w := range res.Windows {
		res.Samples += w.Samples
		res.CapViolations += w.Violations
	}
	// Only a run whose budget was spelled as a timeline reports its
	// window ledger.
	res.Windows = nil
	if s.cfg.Plan != nil {
		res.Plan = s.capPlan.String()
		res.Windows, res.CapUtilisation = s.collectWindows()
	}
	res.Availability = 1
	down := float64(s.flt.downTime)
	for r := range s.flt.dead {
		// Failures still open when the trace drained are clamped at
		// the makespan.
		if s.flt.dead[r] && s.flt.deadSince[r] < res.Makespan {
			down += float64(res.Makespan - s.flt.deadSince[r])
		}
	}
	if res.Makespan > 0 && s.cl.Ranks() > 0 {
		res.Availability = 1 - down/(float64(res.Makespan)*float64(s.cl.Ranks()))
	}
	if res.Completed > 0 {
		res.EnergyPerJob = units.Joules(float64(energy) / float64(res.Completed))
		res.MeanEE = ee / float64(res.Completed)
		res.MeanWait = units.Seconds(float64(waited) / float64(res.Completed))
		sort.Slice(waits, func(a, b int) bool { return waits[a] < waits[b] })
		res.MaxWait = waits[len(waits)-1]
		res.P95Wait = waits[int(math.Ceil(0.95*float64(len(waits))))-1]
	}
	if res.Makespan > 0 {
		res.Throughput = float64(res.Completed) / float64(res.Makespan)
	}
	return res
}

// WindowStat is the per-budget-window slice of a schedule run under a
// cap timeline: the window's bounds and cap, the energy dissipated and
// samples audited inside it, and how hard the budget was used.
type WindowStat struct {
	Start, End units.Seconds
	Cap        units.Watts
	// Energy integrates the measured draw inside the window (sampling
	// windows straddling a breakpoint contribute pro rata).
	Energy units.Joules
	// Samples and Violations count the profiler samples whose audit
	// time fell in the window, and how many exceeded its cap.
	Samples    int
	Violations int
	// MeanPower is Energy over the window length; Utilisation is
	// MeanPower over the window's cap.
	MeanPower   units.Watts
	Utilisation float64
}

// collectWindows closes the window ledger at the sampling horizon (the
// last sample), dropping windows the schedule never reached, and
// returns it with the overall time-weighted cap utilisation.
func (s *Scheduler) collectWindows() ([]WindowStat, float64) {
	horizon := s.gov.last
	if horizon == 0 {
		return nil, 0
	}
	segs := s.capPlan.Segments()
	stats := s.res.Windows
	var capIntegral float64
	for i := range stats {
		// A segment starting exactly at the last sample time still owns
		// that boundary sample (the audit judges a breakpoint sample by
		// the new window), so only segments strictly beyond the horizon
		// are dropped.
		if stats[i].Start > horizon {
			stats = stats[:i]
			break
		}
		w := &stats[i]
		w.End, w.Cap = horizon, segs[i].Cap
		if i+1 < len(segs) {
			w.End = min(horizon, segs[i+1].Start)
		}
		if dt := w.End - w.Start; dt > 0 {
			w.MeanPower = units.Power(w.Energy, dt)
			w.Utilisation = float64(w.MeanPower) / float64(w.Cap)
		}
		capIntegral += float64(w.Cap) * float64(w.End-w.Start)
	}
	util := 0.0
	if capIntegral > 0 {
		// No sampling window ends past the horizon: this is ∫P over it.
		util = float64(s.gov.energy) / capIntegral
	}
	return stats, util
}

// MarshalJSON renders the state as its name ("queued", "done", …) so
// machine-readable dumps stay stable if the iota order ever changes.
func (s JobState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// WindowTable renders the per-budget-window accounting of a plan run.
func (r Result) WindowTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %8s %7s %12s %9s %6s %5s\n",
		"window", "", "cap", "samples", "energy", "meanW", "util", "viol")
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "%10v %10v %8.0f %7d %12v %9.1f %5.1f%% %5d\n",
			w.Start, w.End, float64(w.Cap), w.Samples, w.Energy,
			float64(w.MeanPower), w.Utilisation*100, w.Violations)
	}
	return b.String()
}

// String renders a one-result summary.
func (r Result) String() string {
	return fmt.Sprintf("%s on %s/%d ranks, cap %v: %d done, %d rejected, makespan %v, energy/job %v, violations %d",
		r.Policy, r.Platform, r.Ranks, r.Cap, r.Completed, r.Rejected, r.Makespan, r.EnergyPerJob, r.CapViolations)
}

// ComparisonTable renders a head-to-head table over policies run on the
// same trace — the schedrun CLI's output.
func ComparisonTable(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %9s %5s %4s %10s %12s %12s %7s %8s %8s %9s %6s %7s %5s\n",
		"policy", "makespan", "done", "rej", "thru/s", "energy", "energy/job", "meanEE", "wait", "maxwait", "peakW", "viol", "retunes", "bfill")
	for _, r := range results {
		fmt.Fprintf(&b, "%-18s %9v %5d %4d %10.3f %12v %12v %7.4f %8v %8v %9.1f %6d %7d %5d\n",
			r.Policy, r.Makespan, r.Completed, r.Rejected, r.Throughput,
			r.TotalEnergy, r.EnergyPerJob, r.MeanEE, r.MeanWait, r.MaxWait,
			float64(r.PeakPower), r.CapViolations, r.FreqChanges, r.BackfilledJobs)
	}
	return b.String()
}

// JobTable renders the per-job records of one result.
func (r Result) JobTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %-4s %-8s %-8s %4s %8s %9s %9s %9s %11s %7s %7s %2s\n",
		"job", "app", "pool", "state", "p", "f[GHz]", "arrive", "start", "end", "energy", "EE", "retunes", "bf")
	for _, j := range r.Jobs {
		f := float64(j.StartFreq) / 1e9
		bf := ""
		if j.Backfilled {
			bf = "y"
		}
		pool := j.Pool
		if pool == "" {
			pool = "-"
		}
		fmt.Fprintf(&b, "%4d %-4s %-8s %-8s %4d %8.1f %9v %9v %9v %11v %7.4f %7d %2s\n",
			j.ID, j.Vector.Name, pool, j.State, j.P, f, j.Arrival, j.Start, j.End, j.Energy, j.ModelEE, j.FreqChanges, bf)
	}
	return b.String()
}
