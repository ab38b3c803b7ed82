package sched

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/app"
	"repro/internal/units"
)

// JobState is the lifecycle state of a submitted job.
type JobState int

const (
	// Queued: arrived, waiting for ranks and power headroom.
	Queued JobState = iota
	// Running: dispatched onto a rank set.
	Running
	// Done: completed all work.
	Done
	// Rejected: can never run under this cluster and cap.
	Rejected
	// Lost: killed by rank failures more times than the fault plan's
	// retry cap allows (or stranded by permanent capacity loss after
	// already consuming cluster time); only reachable under fault
	// injection (Config.Faults).
	Lost
)

var stateNames = [...]string{Queued: "queued", Running: "running", Done: "done", Rejected: "rejected", Lost: "lost"}

func (s JobState) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Job is one unit of work submitted to the scheduler: an application
// vector at a problem size, a width range, and service metadata.
//
// The json tags on Job and JobResult are the -json wire schema
// (snake_case, units suffixed, declaration order). Job must not grow a
// MarshalJSON: promoted through JobResult it would swallow the record.
type Job struct {
	// ID orders jobs and must be unique within one Run.
	ID int `json:"id"`
	// Vector is the application-dependent workload model.
	Vector app.Vector `json:"app"`
	// N is the problem size the vector is evaluated at.
	N float64 `json:"n"`
	// MinWidth and MaxWidth bound the rank count; policies pick a
	// power-of-two width inside [MinWidth, MaxWidth] (moldable jobs).
	// MinWidth zero means 1. A MinWidth above the cluster size makes
	// the job Rejected.
	MinWidth int `json:"min_width,omitempty"`
	MaxWidth int `json:"max_width"`
	// Priority weighs the job in admission ordering and in fair-share
	// power division; zero means 1.
	Priority int `json:"priority,omitempty"`
	// Arrival is when the job enters the queue (virtual time).
	Arrival units.Seconds `json:"arrival_s"`
	// Deadline, if positive, is the relative completion target; points
	// that meet Arrival+Deadline are preferred at admission, and misses
	// are reported in the result.
	Deadline units.Seconds `json:"deadline_s,omitempty"`
}

func (j Job) validate() error {
	if j.Vector.WOn == nil {
		return fmt.Errorf("sched: job %d has no application vector", j.ID)
	}
	if j.N <= 0 {
		return fmt.Errorf("sched: job %d: problem size %g must be positive", j.ID, j.N)
	}
	if j.MaxWidth < 1 {
		return fmt.Errorf("sched: job %d: MaxWidth %d must be ≥ 1", j.ID, j.MaxWidth)
	}
	if j.MinWidth > j.MaxWidth {
		return fmt.Errorf("sched: job %d: MinWidth %d > MaxWidth %d", j.ID, j.MinWidth, j.MaxWidth)
	}
	if j.Arrival < 0 || j.Deadline < 0 {
		return fmt.Errorf("sched: job %d: negative arrival or deadline", j.ID)
	}
	return nil
}

// minWidth returns the effective lower width bound.
func (j *Job) minWidth() int {
	if j.MinWidth < 1 {
		return 1
	}
	return j.MinWidth
}

// priority returns the effective priority weight.
func (j *Job) priority() int {
	if j.Priority < 1 {
		return 1
	}
	return j.Priority
}

// maxWidths sizes the stack buffers grid searches enumerate widths into:
// pools up to 2^14 ranks fit, a longer enumeration merely allocates.
const maxWidths = 16

// Widths appends to ws the candidate rank counts for the job on a
// cluster with the given free capacity, ascending: powers of two within
// [MinWidth, min(MaxWidth, free)], plus the exact bounds when they are
// not powers of two themselves. Admission scans this enumeration, and
// the federation's router prices the same widths a site's admission
// would consider.
func (j *Job) Widths(ws []int, free int) []int {
	lo, hi := j.minWidth(), min(j.MaxWidth, free)
	if hi < lo {
		return ws
	}
	ws = append(ws, lo)
	for w := 1; w < hi; w *= 2 {
		if w > lo {
			ws = append(ws, w)
		}
	}
	if hi > lo {
		ws = append(ws, hi)
	}
	return ws
}

// JobResult is the per-job accounting record of one schedule.
type JobResult struct {
	Job
	State JobState `json:"state"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
	// Pool names the platform node pool the job ran in (empty until
	// dispatch); P and StartFreq are the admitted operating point;
	// FreqChanges counts governor retunes applied after admission.
	Pool        string      `json:"pool,omitempty"`
	P           int         `json:"p,omitempty"`
	StartFreq   units.Hertz `json:"f_hz,omitempty"`
	FreqChanges int         `json:"freq_changes,omitempty"`
	// Backfilled reports that the job was admitted past a blocked queue
	// head under an active backfill reservation (backfill.go).
	Backfilled bool `json:"backfilled,omitempty"`
	// Start and End bound the execution; Wait is Start − Arrival.
	Start units.Seconds `json:"start_s"`
	End   units.Seconds `json:"end_s"`
	Wait  units.Seconds `json:"wait_s"`
	// Energy is the measured energy attributed to the job: idle power
	// of its rank set over its runtime plus the active component deltas
	// of its executed work, integrated piecewise across retunes.
	Energy units.Joules `json:"energy_j"`
	// ModelEE is the predicted iso-energy-efficiency at the admitted
	// operating point.
	ModelEE float64 `json:"model_ee,omitempty"`
	// DeadlineMet reports End ≤ Arrival+Deadline for jobs with one.
	DeadlineMet bool `json:"deadline_met,omitempty"`

	// Fault-injection accounting (zero without Config.Faults).
	// Restarts counts re-dispatches after a rank failure killed an
	// attempt; Checkpoints counts periodic checkpoints taken; LostWork
	// is the model runtime of completed-then-discarded work (progress
	// past the last checkpoint at each kill); WastedEnergy is the
	// measured energy of killed attempts — spent, but buying no
	// completed job.
	Restarts     int           `json:"restarts,omitempty"`
	Checkpoints  int           `json:"checkpoints,omitempty"`
	LostWork     units.Seconds `json:"lost_work_s,omitempty"`
	WastedEnergy units.Joules  `json:"wasted_energy_j,omitempty"`
}

// TraceConfig shapes SyntheticTrace.
type TraceConfig struct {
	Jobs int
	Seed int64
	// MeanInterarrival spaces arrivals exponentially; zero means 5 ms.
	MeanInterarrival units.Seconds
	// MaxWidth caps job widths; zero means 32.
	MaxWidth int
}

// Every traceDeadlineEvery-th job of a synthetic trace (jobs 3, 7, …)
// carries the relative deadline traceDeadline — generous, so a miss
// indicates pathological queueing.
const (
	traceDeadlineEvery               = 4
	traceDeadline      units.Seconds = 30
)

// SyntheticTrace generates a deterministic mixed workload: the five
// NPB-style vectors at randomised problem sizes, power-of-two widths,
// priorities 1–4, exponential arrivals, and a deadline on every fourth
// job. The same config always yields the same trace.
func SyntheticTrace(cfg TraceConfig) []Job {
	if cfg.MeanInterarrival <= 0 {
		cfg.MeanInterarrival = 5 * units.Millisecond
	}
	if cfg.MaxWidth <= 0 {
		cfg.MaxWidth = 32
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	type shape struct {
		vec      app.Vector
		nLo, nHi float64 // N is log-uniform on [nLo, nHi]
	}
	shapes := []shape{
		{app.FT(4), 1 << 16, 1 << 19},
		{app.EP(), 1e7, 1e8},
		{app.CG(11, 3), 2e4, 1e5},
		{app.IS(1024, 4), 1 << 16, 1 << 20},
		{app.MG(2), 1 << 15, 1 << 18},
	}
	jobs := make([]Job, 0, max(cfg.Jobs, 0)) // a negative count is an empty trace, not a panic
	var t units.Seconds
	for i := 0; i < cfg.Jobs; i++ {
		sh := shapes[rng.Intn(len(shapes))]
		n := sh.nLo * math.Exp(rng.Float64()*math.Log(sh.nHi/sh.nLo))
		width := min(1<<(3+rng.Intn(3)), cfg.MaxWidth) // 8..32
		j := Job{
			ID:       i,
			Vector:   sh.vec,
			N:        math.Ceil(n),
			MaxWidth: width,
			Priority: 1 + rng.Intn(4),
			Arrival:  t,
		}
		if i%traceDeadlineEvery == traceDeadlineEvery-1 {
			j.Deadline = traceDeadline
		}
		t += units.Seconds(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		jobs = append(jobs, j)
	}
	return jobs
}
