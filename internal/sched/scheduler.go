package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/capplan"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/opcache"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Config describes one scheduling run.
type Config struct {
	// Platform describes the node pools to schedule over — the classic
	// homogeneous cluster is machine.Homogeneous(spec). Each pool's DVFS
	// ladder is the governor's actuation range for the ranks it hosts,
	// and a job always runs entirely within one pool (the model's
	// parameter vector is per node type).
	Platform machine.Platform
	// Ranks provisions a prefix of the platform's global rank numbering
	// (one rank per node as in the paper's per-processor energy model);
	// zero means the whole platform.
	Ranks int
	// Cap is the whole-cluster power budget the schedule must respect —
	// the paper's fixed constraint, and shorthand for a one-window Plan:
	// New builds that plan, so both spellings run the same code and
	// produce the same schedule.
	Cap units.Watts
	// Plan spells the budget as a timeline instead (demand-response
	// windows, diurnal price curves, carbon-intensity series —
	// internal/capplan). Admission charges each job's power envelope
	// against the minimum cap over its predicted lifetime, the backfill
	// shadow walk reserves against the timeline, the governor treats
	// every breakpoint as a scheduling edge (throttling ahead of a drop,
	// boosting and re-admitting on a rise), and the violation audit
	// compares each sample to the cap in force at the sample's time.
	// Set exactly one of Cap and Plan. A run given a Plan (or whose
	// fault plan adds a power emergency) also reports Result.Plan,
	// Windows and CapUtilisation.
	Plan *capplan.Plan
	// Faults, when set, injects deterministic node failures, repairs and
	// power emergencies into the run (internal/faults): scripted
	// fail/repair events, per-pool MTBF/MTTR exponential processes drawn
	// from an explicit-source RNG seeded by Seed, and emergency windows
	// that clamp the effective cap below the configured budget. Rank
	// failures kill the jobs running on them mid-phase; killed jobs are
	// resubmitted under the plan's retry cap with a checkpoint/restart
	// cost model. Nil (the default) keeps every schedule byte-identical
	// to a fault-free run — pinned by the golden tests.
	Faults *faults.Plan
	// Policy picks operating points at admission (default EEMax).
	Policy Policy
	// Interval is the governor/profiler sampling period; zero selects
	// the 25 ms default and negative values are a configuration error.
	Interval units.Seconds
	// EdgeRetune additionally runs the governor's throttle/boost pass on
	// every scheduling edge (admission and completion) instead of only
	// on the sampling grid, cutting control latency. Off by default so
	// existing schedules are unchanged.
	EdgeRetune bool
	// Noise perturbs execution like real hardware; the zero value keeps
	// runs exactly reproducible (and the zero-violation guarantee
	// exact).
	Noise cluster.NoiseConfig
	// NoisyMeter perturbs the profiler's readings like a physical power
	// meter. Off by default so the audit trail is exact.
	NoisyMeter bool
	// Telemetry, when non-nil, receives the run's decision stream
	// (admissions, rejections with reasons, governor retunes, plan
	// edges, power samples) and sim-time metrics — see
	// internal/telemetry. Nil (the default) compiles every emit site to
	// an untaken branch: no events, no allocations, schedules
	// byte-identical to an uninstrumented run.
	Telemetry *telemetry.Recorder
	// Obs, when non-nil, attaches the host-side self-observability
	// layer (internal/obs): wall-clock phase timers around the
	// admission pass, backfill shadow walk, governor retune and kernel
	// event drain, plus kernel/opcache gauges and per-Run allocation
	// deltas. Strictly host-side — it never feeds back into a
	// scheduling decision, so an observed run is byte-identical to an
	// unobserved one. Nil (the default) compiles every site to an
	// untaken branch, the same discipline as Telemetry.
	Obs *obs.Host
	// PerfSlack bounds how much service quality an EE-optimising
	// admission may trade away: a width is only eligible if its best
	// runtime over the DVFS ladder stays within PerfSlack × the job's
	// unconstrained fastest runtime (admission.go). Zero means 1.3.
	PerfSlack float64
	// Seed drives all randomness.
	Seed int64
}

// poolState is the scheduler-side view of one platform node pool: its
// spec and ladder, the evaluator that prices its rows into job entries
// (priced), and the free ranks it currently holds.
type poolState struct {
	name    string
	spec    machine.Spec
	cache   *opcache.Cache
	ladder  []units.Hertz
	idleMin units.Watts // parked (ladder-minimum) idle power per rank
	size    int         // provisioned ranks in this pool
	free    []int       // sorted ascending; lowest ranks assigned first
	scratch []int       // reusable merge buffer for finish
}

// Scheduler executes job traces on a simulated power-capped cluster.
// Create one per Run.
//
// Execution is purely event-driven: jobs advance through timer callbacks
// on the simulation kernel (sim.Kernel.Run with no Proc spawned), never
// through per-rank goroutines — see runChain below for the execution
// model. Every budget decision prices against one cap timeline (effPlan)
// and every job, however dispatched, ends through vacate.
type Scheduler struct {
	cfg  Config
	cl   *cluster.Cluster
	prof *power.Profiler
	gov  *governor
	// tel is the telemetry glue, nil when Config.Telemetry is nil;
	// every emit site guards on it (internal/sched/telemetry.go).
	tel *schedTelemetry
	// hst is the host observability handle, nil when Config.Obs is
	// nil; every phase-timer site guards on it (same discipline as
	// tel, enforced by telguard).
	hst *obs.Host

	// effPlan is the cap timeline every budget decision prices against:
	// Config.Plan, or the one-window plan of a bare Config.Cap, composed
	// with the fault plan's power emergencies (faults.Plan.EffectiveCaps).
	// With no emergencies it is Config.Plan itself — same pointer, which
	// is how a federation's revisions of that plan reach the scheduler.
	effPlan *capplan.Plan
	// flt is the fault-injection state of Config.Faults, or of the empty
	// plan when that is nil — never nil (internal/sched/faults.go).
	flt *faultState

	// pools mirror Config.Platform.Pools; every candidate names the pool
	// that priced it and rank assignment draws from that pool's free
	// list. largestPool is the biggest provisioned pool size — the widest
	// any single job can ever run, since rank sets never span pools.
	pools       []poolState
	largestPool int

	// best and bestDL are search's result slots, valid until the next search.
	best, bestDL Candidate

	// lockstep is set when execution noise is off: every rank of a job
	// then has identical slice timing, so one event chain spans the whole
	// rank set. With noise, ranks desynchronise and each drives its own
	// one-rank chain (runChain).
	lockstep bool

	owner  []*runningJob
	meters []rankMeter

	entries map[int]*entry
	// queue holds the arrived, waiting jobs in insertion order; requeues
	// re-enter at the tail. prio, the priority view, holds the same
	// entries ordered (priority desc, Arrival, ID): fully keyed, so
	// insertion-independent. enqueue and prune are their only writers;
	// admission passes iterate both in place.
	queue, prio []*entry
	running     []*runningJob
	remaining   int   // jobs not yet Done/Rejected
	freeBuf     []int // backs freeByPool's snapshot

	// blocked records that the latest admission pass left jobs queued:
	// until the next arrival or completion no admission can succeed, so
	// spare watts are loanable to running jobs (governor boost).
	blocked bool

	// rsvs are the active backfill reservations, if any: the per-pool
	// ranks and watts the first K blocked jobs are promised at
	// model-predicted future start times (backfill.go). Recomputed on
	// every admission pass; empty whenever the policy is not a Backfill
	// wrapper or the head is startable. The governor consults them so
	// boosts never loan watts a reservation holds.
	rsvs []*reservation

	// res is the run's ledger: every count and energy known the moment
	// it happens is booked here, once (see collect).
	res Result
	ran bool

	// idleFloor is the fully parked cluster's draw (every provisioned
	// rank at its pool's ladder minimum) — the idle-cluster headroom
	// reference the future-window feasibility probe prices against.
	idleFloor units.Watts
}

type entry struct {
	job Job
	res JobResult
	// saved is the checkpointed progress fraction a killed job resumes
	// from at its next dispatch (0 without checkpointing: start over).
	saved float64
	// taken marks the job admitted by the admission pass under way;
	// admitPass clears it before the pass returns.
	taken bool
	// refTp and floor are the job's pricing, set at its first grid search
	// (referenceTp): the unconstrained fastest runtime — 0 until priced,
	// negative on a model failure — and the per-pool admissibility floor.
	// grid owns the rows behind them (priced). s.entries outlives the job,
	// so finish, reject and lose drop both: that is the rows' release.
	refTp units.Seconds
	floor []poolFloor
	grid  []pricedRow
}

// runningJob is the execution state of one dispatched job.
type runningJob struct {
	e      *entry
	pool   int // index into Scheduler.pools
	ranks  []int
	fIdx   int // current index on the pool's ladder
	admIdx int // ladder index admitted at
	eeIdx  int // ladder index maximising model EE at this width
	prof   *opcache.Row

	alpha     float64
	sliceOn   float64
	sliceOff  float64
	sliceComm units.Seconds // per-rank per-slice network time, unscaled
	slices    int
	left      int // ranks still executing
	energy    units.Joules

	// chains are the job's event chains, partitioning ranks: one over the
	// whole rank set in lockstep (backed by one, so the common shape
	// allocates nothing), else one per rank.
	chains []chain
	one    [1]chain

	// progress and pricedAt are the shadow-time bookkeeping backfill
	// reservations rest on: progress is the model-predicted fraction of
	// the job completed by pricedAt, advanced at every retune so the
	// remaining work is always priced at the current ladder point.
	progress float64
	pricedAt units.Seconds

	// Fault-injection state (zero-valued without Config.Faults): killed
	// marks an attempt a rank failure aborted; the chains' timers and
	// ckptTimer are the pending kernel events a kill must cancel; base
	// is the absolute progress fraction this attempt resumed from,
	// lastCkpt the latest checkpointed absolute fraction; workScale
	// stretches the model runtime of a resumed attempt (remaining work
	// plus restart surcharge over the full run — 0 or 1 means unscaled).
	killed    bool
	ckptTimer sim.Timer
	base      float64
	lastCkpt  float64
	workScale float64
}

// chain is one event chain of a running job: ranks[lo:hi] step through
// the slice sequence together, one kernel event per phase.
type chain struct {
	rj     *runningJob // back-pointer, so a phase event holds the chain alone
	lo, hi int
	slice  int       // next/current slice index
	inComm bool      // current phase is the comm half of the slice
	timer  sim.Timer // the pending phase completion
}

func (rj *runningJob) width() int { return len(rj.ranks) }

// fracAt is the model-predicted fraction of the attempt completed by
// now: progress plus the stretch since the last repricing, at the
// current frequency.
func (rj *runningJob) fracAt(now units.Seconds) float64 {
	frac := rj.progress
	if tp := scaledTp(rj, rj.fIdx); tp > 0 {
		frac += float64(now-rj.pricedAt) / float64(tp)
	}
	return min(frac, 1)
}

// rankMeter is the per-rank piecewise energy integrator that attributes
// measured energy to jobs (and to the parked pool) across frequency
// changes and ownership changes.
type rankMeter struct {
	t    units.Seconds
	busy cluster.ComponentBusy
}

// New validates the configuration and provisions the cluster with every
// rank parked at its pool's ladder minimum. A cap below the cluster's
// parked idle floor is rejected outright: no schedule could avoid
// violating it.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Policy == nil {
		cfg.Policy = EEMax()
	}
	if cfg.Interval < 0 || !units.Finite(cfg.Interval) {
		return nil, fmt.Errorf("sched: sampling interval %v must be finite and not negative", cfg.Interval)
	}
	if cfg.Interval == 0 {
		cfg.Interval = 25 * units.Millisecond
	}
	if cfg.Interval < power.MinInterval {
		return nil, fmt.Errorf("sched: sampling interval %v below the %v floor", cfg.Interval, power.MinInterval)
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = cfg.Platform.TotalRanks()
	}
	if cfg.Ranks < 0 {
		return nil, fmt.Errorf("sched: cluster size %d must be positive", cfg.Ranks)
	}
	plan := cfg.Plan
	if plan == nil {
		// A bare cap is a one-window timeline; capplan checks it is
		// positive and finite, as it does every plan's caps.
		var err error
		if plan, err = capplan.Steps(capplan.Segment{Cap: cfg.Cap}); err != nil {
			return nil, fmt.Errorf("sched: power cap %v: %w", cfg.Cap, err)
		}
	} else if cfg.Cap != 0 {
		return nil, fmt.Errorf("sched: Config.Cap and Config.Plan are mutually exclusive (encode a constant cap as capplan.Constant)")
	} else if err := plan.Validate(); err != nil {
		return nil, err
	}
	fplan := cfg.Faults
	if fplan == nil {
		// No fault plan is the empty one: nothing scripted, no rates,
		// no emergencies — every fault hook then finds nothing to do.
		fplan = &faults.Plan{}
	}
	if err := fplan.Validate(); err != nil {
		return nil, err
	}
	for _, ev := range fplan.Scripted {
		if ev.Rank >= cfg.Ranks {
			return nil, fmt.Errorf("sched: fault plan scripts rank %d but only %d ranks are provisioned", ev.Rank, cfg.Ranks)
		}
	}

	cl, err := cluster.New(cluster.Config{
		Platform:  cfg.Platform,
		PoolFreqs: cfg.Platform.MinFrequencies(),
		Ranks:     cfg.Ranks,
		Noise:     cfg.Noise,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	s := &Scheduler{
		cfg:      cfg,
		cl:       cl,
		hst:      cfg.Obs,
		lockstep: cfg.Noise.ComputeJitter == 0 && cfg.Noise.MemoryJitter == 0,
		owner:    make([]*runningJob, cfg.Ranks),
		meters:   make([]rankMeter, cfg.Ranks),
		entries:  make(map[int]*entry),
		freeBuf:  make([]int, len(cfg.Platform.Pools)),
	}
	s.pools = make([]poolState, len(cfg.Platform.Pools))
	for i, np := range cfg.Platform.Pools {
		pc, err := opcache.New(np.Spec)
		if err != nil {
			return nil, fmt.Errorf("sched: pool %d (%s): %w", i, np.PoolName(), err)
		}
		s.pools[i] = poolState{
			name:    np.PoolName(),
			spec:    np.Spec,
			cache:   pc,
			ladder:  pc.Ladder(),
			idleMin: pc.ParamsAt(0).PsysIdle,
		}
	}
	for r := 0; r < cfg.Ranks; r++ {
		ps := &s.pools[cl.PoolOf(r)]
		ps.free = append(ps.free, r)
		ps.size++
	}
	var floor units.Watts
	for i := range s.pools {
		s.pools[i].scratch = make([]int, 0, s.pools[i].size)
		floor += units.Watts(float64(s.pools[i].size) * float64(s.pools[i].idleMin))
		s.largestPool = max(s.largestPool, s.pools[i].size)
	}
	s.idleFloor = floor
	if s.effPlan, err = fplan.EffectiveCaps(plan); err != nil {
		return nil, err
	}
	s.flt = newFaultState(s, fplan)
	// The tightest effective window (budget timeline clamped by any
	// power emergency) is the binding constraint: a budget below the
	// idle floor anywhere on the timeline guarantees violations while
	// that window is in force.
	if minCap := s.effPlan.MinCap(); minCap < floor {
		return nil, fmt.Errorf("sched: cap %v is below the cluster idle floor %v (%d ranks parked at each pool's ladder minimum) — no schedule can satisfy it",
			minCap, floor, cfg.Ranks)
	}
	return s, nil
}

// capAt is the instantaneous power budget at time t — the reference the
// violation audit compares measured samples against.
func (s *Scheduler) capAt(t units.Seconds) units.Watts {
	return s.effPlan.CapAt(t)
}

// controlCap is the budget the control plane enforces at time t: the
// minimum cap over the next sampling interval. The profiler's audit
// compares each window's *average* draw to the cap at the window's end,
// so a draw admitted legally just before a downward step would smear
// over the step and read as a violation; enforcing one interval ahead
// means every instant a measurement window covers was already held
// under the cap the window is judged against.
func (s *Scheduler) controlCap(t units.Seconds) units.Watts {
	return s.effPlan.MinOver(t, t+s.cfg.Interval)
}

// narrowToLifetime is the min-over-lifetime admission rule: a budget
// measured against ctrl, the control cap at now, shrinks by however much
// the cap timeline dips below ctrl while a job predicted to run for tp
// is resident, plus one trailing sampling window (the last window
// containing its draw ends up to one interval after it completes).
// Charging the job's conservative envelope against that minimum is what
// lets a schedule cross downward budget steps with zero violations even
// for policies the governor cannot retune (fifo has no DVFS to throttle
// at the step). A flat timeline never dips, so the budget is unchanged.
func (s *Scheduler) narrowToLifetime(ctrl units.Watts, now units.Seconds, budget units.Watts, tp units.Seconds) units.Watts {
	if red := ctrl - s.effPlan.MinOver(now, now+tp+s.cfg.Interval); red > 0 {
		return budget - red
	}
	return budget
}

// freeByPool snapshots each pool's free-rank count into the scheduler's
// one scratch slice, valid until the next call (liveContext).
func (s *Scheduler) freeByPool() []int {
	for i := range s.pools {
		s.freeBuf[i] = len(s.pools[i].free)
	}
	return s.freeBuf
}

// ladderOf returns the DVFS ladder of the pool hosting a running job.
func (s *Scheduler) ladderOf(rj *runningJob) []units.Hertz {
	return s.pools[rj.pool].ladder
}

// predictedTotal is the model-side sustained cluster draw: parked idle
// (per pool, at that pool's ladder minimum) plus every running job's
// conservative draw at its current frequency. The admission and
// governor invariants keep it ≤ Cap at all times, which is what makes
// the measured trace respect the cap too.
func (s *Scheduler) predictedTotal() units.Watts {
	var total units.Watts
	for i := range s.pools {
		// Dead ranks are fenced off the free list but their hardware
		// still draws parked idle power until repaired.
		idle := len(s.pools[i].free) + s.flt.deadByPool[i]
		total += units.Watts(float64(idle) * float64(s.pools[i].idleMin))
	}
	for _, rj := range s.running {
		total += rj.prof.Draw[rj.fIdx]
	}
	return total
}

// headroom is the power left under the cap the control plane is
// enforcing right now.
func (s *Scheduler) headroom() units.Watts {
	return s.controlCap(s.cl.Kernel().Now()) - s.predictedTotal()
}

// predictedEndAt returns the model-predicted completion time of a
// running job if it executed at ladder index idx from now on: the work
// fraction done so far leaves 1−frac of the ladder-idx runtime. This is
// the virtual clock backfill reservations walk.
func (s *Scheduler) predictedEndAt(rj *runningJob, idx int) units.Seconds {
	now := s.cl.Kernel().Now()
	return now + units.Seconds((1-rj.fracAt(now))*float64(scaledTp(rj, idx)))
}

// predictedEnd is predictedEndAt at the job's current frequency.
func (s *Scheduler) predictedEnd(rj *runningJob) units.Seconds {
	return s.predictedEndAt(rj, rj.fIdx)
}

// bankMeter integrates rank r's energy since its last banking point at
// its current machine vector and returns it. Callers must bank before
// any SetRankFrequency so elapsed time is priced at the outgoing vector.
func (s *Scheduler) bankMeter(r int) units.Joules {
	m := &s.meters[r]
	e, cur := s.cl.EnergySince(r, m.t, m.busy)
	m.t, m.busy = s.cl.Kernel().Now(), cur
	return e
}

// Run executes the trace to completion and returns the fleet accounting.
// A Scheduler is single-use.
func (s *Scheduler) Run(jobs []Job) (Result, error) {
	if s.ran {
		return Result{}, fmt.Errorf("sched: scheduler already ran; create a new one per trace")
	}
	s.ran = true

	ordered := make([]*entry, 0, len(jobs))
	for _, j := range jobs {
		if err := j.validate(); err != nil {
			return Result{}, err
		}
		if _, dup := s.entries[j.ID]; dup {
			return Result{}, fmt.Errorf("sched: duplicate job ID %d", j.ID)
		}
		e := &entry{job: j, res: JobResult{Job: j, State: Queued}}
		s.entries[j.ID] = e
		ordered = append(ordered, e)
	}
	s.remaining = len(jobs)

	prof, err := power.Attach(s.cl, s.cfg.Interval, s.cfg.NoisyMeter)
	if err != nil {
		return Result{}, err
	}
	s.prof = prof
	s.gov = &governor{s: s}
	if s.cfg.Telemetry.Enabled() {
		s.tel = newSchedTelemetry(s, s.cfg.Telemetry)
		// Observer before controller: the stream records the measured
		// sample, then the governor's reaction to it.
		prof.OnSample(s.tel.onSample)
	}
	prof.OnSample(s.gov.onSample)
	prof.KeepSampling(func() bool { return s.remaining > 0 })
	if s.hst != nil {
		// Host-side gauges: Snapshot polls these live sources on the
		// run's own goroutine, never from a concurrent reader.
		s.hst.SetSources(
			s.cl.Kernel().Stats,
			s.cacheStats,
			func() []obs.PoolCache {
				pools := make([]obs.PoolCache, len(s.pools))
				for i := range pools {
					pools[i] = obs.PoolCache{Name: s.pools[i].name, Stats: s.pools[i].cache.Stats()}
				}
				return pools
			},
		)
		s.hst.RunStart()
	}

	// A cap timeline's breakpoints are scheduling edges in their own
	// right: ahead of a downward step the governor must shed draw so no
	// measurement window spanning the step averages above the incoming
	// cap, and at a rise the freed budget should reach the queue and the
	// running jobs immediately rather than at the next sample.
	s.schedulePlanEdges()
	// Fault events (scripted fail/repair, MTBF chains, emergency
	// markers) are armed after the plan edges so a fault and an edge at
	// the same instant fire in a fixed order.
	s.scheduleFaults()

	// Arrival events are scheduled in submission order so that same-time
	// arrivals enqueue deterministically (the kernel fires equal-time
	// events FIFO).
	k := s.cl.Kernel()
	for _, e := range ordered {
		e := e
		k.Schedule(e.job.Arrival, func() { s.arrive(e) })
	}
	// Nothing in the scheduler spawns a process: job slices are timer
	// callbacks, so Run's loop never touches a channel or a second
	// goroutine.
	var drainT0 int64
	if s.hst != nil {
		drainT0 = s.hst.Begin()
	}
	if err := k.Run(); err != nil {
		return Result{}, fmt.Errorf("sched: simulation failed: %w", err)
	}
	if s.hst != nil {
		s.hst.End(obs.PhaseDrain, drainT0)
		s.hst.RunEnd()
	}

	// Close the books: whatever every rank dissipated after its last
	// banking point belongs to the parked pool (no job is running).
	for r := 0; r < s.cl.Ranks(); r++ {
		s.res.ParkedEnergy += s.bankMeter(r)
	}
	return s.collect(), nil
}

// arrive runs in kernel context at a job's arrival time.
func (s *Scheduler) arrive(e *entry) {
	if e.job.minWidth() > s.largestPool {
		s.reject(e, fmt.Sprintf("needs %d ranks, largest pool has %d", e.job.minWidth(), s.largestPool))
		return
	}
	s.enqueue(e)
	if s.tel != nil {
		s.tel.emitArrive(e)
	}
	s.tryAdmit()
}

// enqueue appends a waiting job to the queue and files it in the
// priority view.
func (s *Scheduler) enqueue(e *entry) {
	s.queue = append(s.queue, e)
	i, _ := slices.BinarySearchFunc(s.prio, e, func(a, b *entry) int {
		return cmp.Or(
			cmp.Compare(b.job.priority(), a.job.priority()),
			cmp.Compare(a.job.Arrival, b.job.Arrival),
			cmp.Compare(a.job.ID, b.job.ID))
	})
	s.prio = slices.Insert(s.prio, i, e)
}

// prune drops every job that stopped waiting — started, rejected or
// lost — from the queue and the priority view.
func (s *Scheduler) prune() {
	left := func(e *entry) bool { return e.res.State != Queued }
	s.queue = slices.DeleteFunc(s.queue, left)
	s.prio = slices.DeleteFunc(s.prio, left)
}

// reject finalises a job that can never run.
func (s *Scheduler) reject(e *entry, reason string) {
	e.res.State = Rejected
	e.res.Reason = reason
	s.remaining--
	e.grid, e.floor = nil, nil
	if s.tel != nil {
		s.tel.emitReject(e, reason)
	}
}

// cacheStats sums the pools' evaluation counters.
func (s *Scheduler) cacheStats() opcache.Stats {
	var st opcache.Stats
	for i := range s.pools {
		st.Add(s.pools[i].cache.Stats())
	}
	return st
}

// tryAdmit asks the policy for admissions against the current cluster
// state and starts them. When the cluster is completely idle and the
// normal pass starts nothing, a relaxed pass drops the performance-slack
// rule — waiting cannot improve an idle cluster's headroom, so a slow
// point now beats queueing forever. Jobs the relaxed pass still cannot
// place are infeasible under this cap and are rejected — never spun on.
//
// Every exit path is a scheduling edge: with Config.EdgeRetune the
// governor's control pass runs here too, so completions and admissions
// retune immediately instead of waiting for the next profiler sample.
func (s *Scheduler) tryAdmit() {
	// Every scheduling edge invalidates the previous pass's
	// reservations; a Backfill policy re-derives them from the fresh
	// cluster state.
	s.rsvs = nil
	defer func() {
		s.blocked = len(s.queue) > 0
		s.edgeRetune()
		// The edge snapshot (blocked-job attempts, metrics row) is
		// taken after edgeRetune so it reflects the settled state.
		if s.tel != nil {
			s.tel.edge()
		}
	}()
	if len(s.queue) == 0 {
		return
	}
	if s.gov != nil {
		s.gov.relinquish()
	}
	admitted := s.admitPass(false)
	if admitted == 0 && len(s.running) == 0 {
		now := s.cl.Kernel().Now()
		// The relaxed (width-slack-dropped) pass exists because on an
		// idle cluster under a flat budget waiting can never help — but
		// with a strictly higher window still ahead it can:
		// pool and width are locked for a job's lifetime, so crawling
		// through a temporary squeeze loses to waiting for the rise
		// (the "waiting beats crawling" rule, admission.go). Skip the
		// relaxed pass in that case and let the breakpoint edges rerun
		// this one.
		betterAhead := now < s.effPlan.End() &&
			s.effPlan.MaxFrom(now) > s.controlCap(now)
		if !betterAhead {
			admitted = s.admitPass(true)
		}
		if admitted == 0 {
			// A time-varying budget makes an idle cluster a waiting room,
			// not a dead end — but only for jobs some future window could
			// actually admit. The same holds for lost capacity a pending
			// repair will restore. Rejecting the rest now (rather than at
			// the final breakpoint) keeps a short trace from idling the
			// sampler across a long timeline.
			planAhead := now < s.effPlan.End()
			repairAhead := s.repairAhead(now)
			for _, e := range s.queue {
				switch {
				case (planAhead || repairAhead) && s.feasibleEver(e, now):
				case planAhead:
					s.finalize(e, "no operating point fits any budget window, even on an idle cluster")
				case repairAhead:
					s.finalize(e, "no operating point fits the surviving capacity, even after every pending repair")
				default:
					s.finalize(e, fmt.Sprintf("no operating point fits cap %v even on an idle cluster", s.capAt(now)))
				}
			}
			s.prune()
		}
	}
}

// feasibleEver reports whether the configured policy would start the
// job, relaxed, on an otherwise idle cluster in the current or any
// future effective-cap window — the park-or-reject test for an idle,
// blocked queue. Each probe prices the window's own min-over-lifetime
// narrowing, so a window is only counted feasible if the job also
// clears whatever follows it. Under fault injection the probe's
// capacity excludes permanently dead ranks (no scripted or pending
// repair will ever bring them back) but keeps ranks a repair will
// restore, so a job wide enough only for the healed cluster parks
// instead of dying.
func (s *Scheduler) feasibleEver(e *entry, now units.Seconds) bool {
	free := make([]int, len(s.pools))
	for i := range s.pools {
		free[i] = s.pools[i].size
	}
	for r := range s.flt.dead {
		if s.flt.dead[r] && !s.flt.repairComing(r, now) {
			free[s.cl.PoolOf(r)]--
		}
	}
	for t := now; ; {
		if _, ok := s.shadowCandidate(s.cfg.Policy, e, free, s.controlCap(t)-s.idleFloor, t, true, nil); ok {
			return true
		}
		next, _, ok := s.effPlan.Next(t)
		if !ok {
			return false
		}
		t = next
	}
}

// schedulePlanEdges walks the cap timeline's breakpoints and registers
// the governor's edge events: at every breakpoint a full scheduling
// edge (admission pass plus throttle/boost), and one sampling interval
// ahead of each downward step an early throttle, so the draw is already
// under the incoming cap when the first measurement window judged
// against it opens. Events chain lazily and stop with the trace, so a
// timeline stretching far past the makespan costs nothing.
func (s *Scheduler) schedulePlanEdges() {
	type edge struct {
		t       units.Seconds
		preDrop bool
	}
	var edges []edge
	prev := s.effPlan.CapAt(0)
	for _, bp := range s.effPlan.Breakpoints() {
		next := s.effPlan.CapAt(bp)
		// A revisable plan's caps can be raised after this walk runs
		// (federated re-negotiation), so the construction-time
		// classification of a step as a non-drop may be stale — arm the
		// pre-throttle at every breakpoint instead. A pre-drop edge only
		// sheds draw already over the incoming control cap, so the extra
		// edges are exact no-ops wherever the step turns out not to drop.
		if next < prev || s.effPlan.IsRevisable() {
			pre := bp - s.cfg.Interval
			if pre < 0 {
				pre = 0
			}
			edges = append(edges, edge{t: pre, preDrop: true})
		}
		edges = append(edges, edge{t: bp})
		prev = next
	}
	// Pre-drop edges of closely spaced steps can land out of order with
	// the breakpoints before them; restore time order (stable on ties:
	// an earlier breakpoint's edge fires before a later drop's
	// pre-throttle at the same instant).
	sort.SliceStable(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
	k := s.cl.Kernel()
	var arm func(i int)
	arm = func(i int) {
		if i >= len(edges) {
			return
		}
		k.Schedule(edges[i].t, func() {
			if s.remaining > 0 {
				s.planEdge(edges[i].preDrop)
				arm(i + 1)
			}
		})
	}
	arm(0)
}

// planEdge runs in kernel context at (or one interval ahead of) a cap
// breakpoint. Pre-drop edges only shed draw; the breakpoint proper is a
// first-class scheduling edge — throttle to the new control cap, give
// the queue a shot at any freed budget, and let running jobs boost into
// a rise — regardless of Config.EdgeRetune, which gates only the
// admission/completion edges.
func (s *Scheduler) planEdge(preDrop bool) {
	if s.tel != nil {
		s.tel.emitPlanEdge(preDrop)
	}
	dvfs := s.cfg.Policy.DVFS()
	if dvfs {
		s.gov.throttle()
	}
	if preDrop {
		return
	}
	s.tryAdmit()
	if dvfs && len(s.running) > 0 {
		s.gov.boost()
	}
}

// edgeRetune is the event-driven governor satellite: at a scheduling
// edge, run the same throttle/boost pass the sampling grid runs, so
// freed watts reach running jobs (and overruns shed) with zero control
// latency. Gated behind Config.EdgeRetune; the sampling-grid pass still
// runs as the audit heartbeat.
func (s *Scheduler) edgeRetune() {
	if !s.cfg.EdgeRetune || s.gov == nil || !s.cfg.Policy.DVFS() {
		return
	}
	var t0 int64
	if s.hst != nil {
		t0 = s.hst.Begin()
	}
	s.gov.throttle()
	if len(s.running) > 0 {
		s.gov.boost()
	}
	if s.hst != nil {
		s.hst.End(obs.PhaseGovernor, t0)
	}
}

// admitPass runs one policy admission round; it returns how many jobs
// were started.
func (s *Scheduler) admitPass(relaxed bool) int {
	var t0 int64
	if s.hst != nil {
		t0 = s.hst.Begin()
	}
	ctx := s.liveContext(relaxed)
	s.cfg.Policy.Admit(ctx)
	s.res.HeadBypasses += ctx.bypasses
	if s.tel != nil {
		s.tel.bypasses.Add(float64(ctx.bypasses))
	}

	for i, adm := range ctx.admitted {
		// Admitted jobs stay in s.queue until the prune below, so the
		// post-admission depth subtracts the starts already dispatched.
		adm.e.taken = false
		s.start(adm.e, adm.cand, adm.backfilled, len(s.queue)-(i+1))
	}
	if len(ctx.admitted) > 0 {
		s.prune()
	}
	if s.hst != nil {
		s.hst.End(obs.PhaseAdmission, t0)
	}
	return len(ctx.admitted)
}

// start dispatches a job onto the lowest free ranks of the candidate's
// pool at the candidate operating point and launches its event-driven
// execution. queueAfter is the queue depth once this admission is
// pruned (telemetry labelling only).
func (s *Scheduler) start(e *entry, cand Candidate, backfilled bool, queueAfter int) {
	now := s.cl.Kernel().Now()
	j := e.job
	ps := &s.pools[cand.Pool]
	prof := cand.row
	ranks := append([]int(nil), ps.free[:cand.P]...)
	// Shift down rather than reslice past the prefix: the free list keeps
	// its base, so the buffer releaseRanks later swaps into scratch still
	// has the pool's full capacity and the merge never reallocates.
	ps.free = ps.free[:copy(ps.free, ps.free[cand.P:])]

	fi := ps.cache.LadderIndex(cand.Freq)
	w := prof.W
	mp := ps.cache.ParamsAt(fi)
	perOn := (w.WOn + w.DWOn) / float64(cand.P)
	perOff := (w.WOff + w.DWOff) / float64(cand.P)
	perComm := units.Seconds((w.M*float64(mp.Ts) + w.B*float64(mp.Tb)) / float64(cand.P))

	// A restarted attempt executes only its unfinished work plus the
	// restart surcharge: cand.Tp already carries that scaled runtime
	// (predTp), so the issued slice workloads shrink by the same factor.
	scale := 1.0
	if e.saved > 0 || e.res.Restarts > 0 {
		if full := prof.Pred[fi].Tp; full > 0 {
			scale = float64(cand.Tp) / float64(full)
		}
		perOn *= scale
		perOff *= scale
		perComm = units.Seconds(float64(perComm) * scale)
	}

	slices := int(float64(cand.Tp)/float64(s.cfg.Interval) + 0.5)
	if slices < 4 {
		slices = 4
	}
	if slices > 512 {
		slices = 512
	}

	eeIdx := 0
	for i := range prof.Pred {
		if prof.Pred[i].EE > prof.Pred[eeIdx].EE {
			eeIdx = i
		}
	}
	rj := &runningJob{
		e:         e,
		pool:      cand.Pool,
		ranks:     ranks,
		fIdx:      fi,
		admIdx:    fi,
		eeIdx:     eeIdx,
		prof:      prof,
		alpha:     w.Alpha,
		sliceOn:   perOn / float64(slices),
		sliceOff:  perOff / float64(slices),
		sliceComm: units.Seconds(float64(perComm) / float64(slices)),
		slices:    slices,
		left:      cand.P,
		pricedAt:  now,
		base:      e.saved,
		lastCkpt:  e.saved,
		workScale: scale,
	}
	for _, r := range ranks {
		s.res.ParkedEnergy += s.retuneRank(r, cand.Freq)
		s.owner[r] = rj
	}
	s.running = append(s.running, rj)

	e.res.State = Running
	e.res.Pool = ps.name
	e.res.P = cand.P
	e.res.StartFreq = cand.Freq
	e.res.Start = now
	e.res.Wait = now - j.Arrival
	e.res.ModelEE = cand.EE
	e.res.Backfilled = backfilled

	if s.tel != nil {
		s.tel.emitAdmit(rj, cand, backfilled, queueAfter)
	}
	if e.res.Restarts > 0 {
		s.res.Restarts++
		if s.tel != nil {
			s.tel.emitRestart(rj)
		}
	}
	s.armCheckpoint(rj)

	if s.lockstep {
		rj.chains = rj.one[:]
		rj.chains[0] = chain{rj: rj, hi: len(ranks)}
	} else {
		rj.chains = make([]chain, len(ranks))
		for i := range rj.chains {
			rj.chains[i] = chain{rj: rj, lo: i, hi: i + 1}
		}
	}
	for i := range rj.chains {
		s.runChain(&rj.chains[i])
	}
}

// runChain starts the chain's next phase on every rank of its span and
// completes it with one kernel event. Ranks that share a chain have
// identical slice timing — the paper's p processors each doing W/p of a
// phase in step — so the last rank's wall time is every rank's; a noisy
// run gives each rank its own chain because jitter desynchronises them.
// Jitter is drawn when each operation starts, in rank order at every
// shared instant, so runs stay deterministic for a fixed seed. Each
// phase reads the ranks' current machine vectors, so a governor retune
// between phases re-prices the remaining work automatically.
func (s *Scheduler) runChain(c *chain) {
	rj := c.rj
	var wall units.Seconds
	for _, r := range rj.ranks[c.lo:c.hi] {
		if c.inComm {
			wall = s.cl.StartComm(r, rj.sliceComm, rj.alpha)
		} else {
			wall = s.cl.StartCompute(r, rj.sliceOn, rj.sliceOff, rj.alpha)
		}
	}
	c.timer = s.cl.Kernel().AfterTimer(wall, func() {
		rj := c.rj // read through c: the closure captures only s and c
		if rj.killed {
			return
		}
		for _, r := range rj.ranks[c.lo:c.hi] {
			s.cl.CompleteOp(r)
		}
		if c.advance() {
			s.runChain(c)
			return
		}
		s.cl.NoteWall(s.cl.Kernel().Now())
		rj.left -= c.hi - c.lo
		if rj.left == 0 {
			s.finish(rj)
		}
	})
}

// advance moves the chain past the phase that just completed and
// reports whether work remains: compute → comm (when the job has a comm
// share) → next slice's compute.
func (c *chain) advance() bool {
	if !c.inComm && c.rj.sliceComm > 0 {
		c.inComm = true
		return true
	}
	c.inComm = false
	c.slice++
	return c.slice < c.rj.slices
}

// retuneRank switches rank r to frequency f and returns the energy it
// dissipated since its last banking point, priced at the outgoing vector
// (bank first — see bankMeter). Every frequency change the scheduler
// makes goes through here.
func (s *Scheduler) retuneRank(r int, f units.Hertz) units.Joules {
	e := s.bankMeter(r)
	if err := s.cl.SetRankFrequency(r, f); err != nil {
		panic(fmt.Sprintf("sched: retune rank %d: %v", r, err))
	}
	return e
}

// vacate takes a job off the cluster, at completion or — abort — at a
// kill: bank its energy, park its ranks at their pool's ladder minimum,
// and return the ones still alive to the free list. An abort also
// cancels the job's pending phase events and aborts the in-flight
// hardware ops pro rata.
func (s *Scheduler) vacate(rj *runningJob, abort bool) {
	rj.ckptTimer.Cancel()
	// A kill releases a fresh slice, not an in-place filter: telemetry
	// still reports the job's full rank set after the release.
	alive := rj.ranks
	if abort {
		for i := range rj.chains {
			rj.chains[i].timer.Cancel()
		}
		alive = make([]int, 0, len(rj.ranks))
	}
	park := s.ladderOf(rj)[0]
	for _, r := range rj.ranks {
		if abort {
			s.cl.AbortOp(r)
		}
		rj.energy += s.retuneRank(r, park)
		s.owner[r] = nil
		if abort && !s.flt.dead[r] {
			alive = append(alive, r)
		}
	}
	s.releaseRanks(rj.pool, alive)
	i := slices.Index(s.running, rj)
	s.running = slices.Delete(s.running, i, i+1)
}

// finish runs in the completion event of a job's last phase: vacate the
// cluster, close the job's record, and give the policy the freed
// capacity.
func (s *Scheduler) finish(rj *runningJob) {
	now := s.cl.Kernel().Now()
	s.vacate(rj, false)

	res := &rj.e.res
	res.State = Done
	res.End = now
	// += not =: earlier killed attempts already banked their energy.
	res.Energy += rj.energy
	res.DeadlineMet = rj.e.job.Deadline <= 0 || now <= rj.e.job.Arrival+rj.e.job.Deadline
	s.remaining--
	rj.e.grid, rj.e.floor = nil, nil
	if s.tel != nil {
		s.tel.emitFinish(rj)
	}

	s.tryAdmit()
}

// releaseRanks merges a finished job's rank set back into its pool's
// free list. Both lists are sorted ascending (rank sets are taken as
// prefixes of the sorted free list), so a single two-pointer merge
// restores the invariant in O(free+width) — finish used to re-sort the
// whole free list instead.
func (s *Scheduler) releaseRanks(pool int, ranks []int) {
	ps := &s.pools[pool]
	merged := ps.scratch[:0]
	i, j := 0, 0
	for i < len(ps.free) && j < len(ranks) {
		if ps.free[i] < ranks[j] {
			merged = append(merged, ps.free[i])
			i++
		} else {
			merged = append(merged, ranks[j])
			j++
		}
	}
	merged = append(merged, ps.free[i:]...)
	merged = append(merged, ranks[j:]...)
	// Swap buffers: the old free list becomes the next merge's scratch.
	ps.scratch = ps.free[:0]
	ps.free = merged
}
