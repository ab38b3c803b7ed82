// Package cluster simulates a power-aware cluster: the execution substrate
// that stands in for SystemG and Dori in this reproduction (DESIGN.md §2).
//
// A Cluster binds together
//
//   - a discrete-event kernel (virtual time),
//   - one machine-dependent parameter vector per rank (tc, tm, Ts, Tb,
//     ΔPc, ΔPm, Psys-idle at the selected DVFS frequency),
//   - one rank per node, each with its own full-duplex NIC, and a
//     point-to-point network cost model with per-NIC serialisation,
//   - per-rank performance counters (workload counts) and a TAU-style
//     tracer, and
//   - a per-rank ledger of compute and memory busy time — the two active
//     deltas the energy model prices — from which measured energy and
//     instantaneous power are derived.
//
// Timing semantics follow the paper's performance model (Eq. 5–6): an
// operation that performs w on-chip instructions and m memory accesses
// occupies the CPU for w·tc and the memory system for m·tm; wall-clock
// time advances by α·(w·tc + m·tm) where α ∈ (0,1] is the computational
// overlap factor. Energy follows Eq. 9: idle power burns for the whole
// (overlapped) wall time while active deltas burn for the full
// (un-overlapped) component busy times. Consequently the power profiler's
// trace integrates exactly to the measured energy.
//
// Optional execution noise (jitter on operation durations) and measurement
// noise (jitter on power readings) make model-validation errors non-zero,
// as on real hardware.
//
// Everything per rank is a dense array indexed by rank, and every pool's
// DVFS ladder is evaluated once into a table (machine.Spec.LadderParams):
// an operation half reads the rank's vector in place, a retune is a table
// lookup (Spec.AtFrequency only for an off-ladder frequency), and every
// meter — the DVFS energy banks, EnergySince, StepMeter — derives from
// one busy-time reader, so the meter is cheap enough to leave on. A
// per-rank touch count lets StepMeter skip a rank nothing changed.
package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/perfctr"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// NoiseConfig controls stochastic perturbations. Zero value = noiseless.
type NoiseConfig struct {
	// ComputeJitter, MemoryJitter, NetJitter are relative standard
	// deviations applied multiplicatively to operation durations.
	ComputeJitter float64
	MemoryJitter  float64
	NetJitter     float64
	// PowerJitter is the relative standard deviation of the power meter:
	// applied to component energy totals at measurement time.
	PowerJitter float64
}

// DefaultNoise reproduces hardware-like run-to-run variability: ~1 % on
// compute, ~3 % on memory, ~5 % on network, and a PowerPack-class meter
// error. Note that in tightly-synchronised codes (CG's per-step
// collectives) even these few percent compound into a visible
// straggler-driven makespan inflation the analytical model cannot see —
// the realistic error source behind the paper's CG being its worst case.
func DefaultNoise() NoiseConfig {
	return NoiseConfig{
		ComputeJitter: 0.01,
		MemoryJitter:  0.03,
		NetJitter:     0.05,
		PowerJitter:   0.02,
	}
}

// Config describes a simulated cluster run.
type Config struct {
	// Platform describes the node pools to provision. Ranks follow the
	// platform's stable global numbering (pool 0 first), so every layer
	// agrees which pool hosts a rank. Leave empty and set Spec for the
	// classic homogeneous cluster.
	Platform machine.Platform
	// Spec is the homogeneous one-pool shorthand: when Platform has no
	// pools, the cluster is provisioned as machine.Homogeneous(Spec).
	Spec machine.Spec
	// Freq is the uniform DVFS operating frequency; zero means each
	// pool's BaseFreq. A multi-pool platform must use PoolFreqs instead:
	// one frequency cannot name an operating point on several ladders.
	Freq units.Hertz
	// PoolFreqs gives each pool its own initial frequency, indexed like
	// Platform.Pools (a zero entry means that pool's BaseFreq). Mutually
	// exclusive with Freq.
	PoolFreqs []units.Hertz
	// Ranks is the number of MPI ranks to provision — a prefix of the
	// platform's global rank numbering.
	Ranks int
	// Alpha is the computational overlap factor α ∈ (0,1]; zero means 1.
	Alpha float64
	// Noise enables stochastic perturbation.
	Noise NoiseConfig
	// Seed drives all randomness (kernel events, execution noise,
	// measurement noise). Same seed ⇒ identical run.
	Seed int64
}

// Cluster is a provisioned simulated machine. Create with New; use one
// per experiment run.
type Cluster struct {
	cfg      Config
	platform machine.Platform
	rankPool []int              // rank → pool index
	ladders  [][]machine.Params // pool → its Spec's evaluated DVFS ladder
	kernel   *sim.Kernel
	params   []machine.Params // rank → current vector
	alpha    float64
	nets     []netmodel.Hockney // pool → Eq. 17's Ts + m·Tb (no DVFS point changes them)
	counters perfctr.Set
	tracer   *trace.Tracer

	// Per-rank NIC channels, as the time each is next free. NICs are
	// full duplex: a node sends and receives concurrently, but two
	// sends from one node (or two receives at one node) serialise,
	// which is how network contention emerges under unbalanced
	// patterns.
	txFree []units.Seconds
	rxFree []units.Seconds

	execRNG *rand.Rand
	measRNG *rand.Rand
	wallEnd units.Seconds // latest completion over all recorded operations

	busy     []ComponentBusy // per rank: busy time of retired operations
	inflight []inflightOp    // per rank: the operation currently executing
	opActive []bool          // per rank: an operation is in flight (guards Start/CompleteOp pairing)
	banks    []energyBank    // per rank: energy banked at past operating points
	retunes  []int64         // per rank: effective frequency changes absorbed
	touches  []int64         // per rank: busy-ledger and vector changes (StepMeter)
}

// energyBank accumulates the energy a rank dissipated at earlier DVFS
// operating points. SetRankFrequency banks the interval since the last
// change at the outgoing parameters, so the energy decomposition stays
// exact piecewise even though params[rank] only holds the current vector.
// All-zero banks (no mid-run frequency change) reproduce the original
// single-operating-point accounting bit for bit.
type energyBank struct {
	idle, cpu, mem units.Joules
	tBase          units.Seconds // idle power integrated up to here
	busyBase       ComponentBusy // busy time priced up to here
}

// inflightOp describes an operation in progress on a rank so that power
// sampling can attribute its busy time pro rata over [start, end] instead
// of as an instantaneous spike.
type inflightOp struct {
	start, end units.Seconds
	dc, dm     units.Seconds // total component attributions of the op
}

// New validates the configuration and provisions the cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("cluster: ranks must be positive, got %d", cfg.Ranks)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("cluster: overlap factor α=%g outside (0,1]", cfg.Alpha)
	}

	platform := cfg.Platform
	if len(platform.Pools) == 0 {
		platform = machine.Homogeneous(cfg.Spec)
	}
	if err := platform.Validate(); err != nil {
		return nil, err
	}
	multi := len(platform.Pools) > 1
	if cfg.Freq != 0 && cfg.PoolFreqs != nil {
		return nil, fmt.Errorf("cluster: Config.Freq %v conflicts with PoolFreqs — pick one", cfg.Freq)
	}
	if cfg.Freq != 0 && multi {
		return nil, fmt.Errorf("cluster: uniform Freq %v is ambiguous on a %d-pool platform — use PoolFreqs", cfg.Freq, len(platform.Pools))
	}
	if cfg.PoolFreqs != nil && len(cfg.PoolFreqs) != len(platform.Pools) {
		return nil, fmt.Errorf("cluster: %d PoolFreqs for %d pools", len(cfg.PoolFreqs), len(platform.Pools))
	}

	// Each pool's ladder is evaluated once; the initial operating point
	// and every later retune index into it (see paramsAt).
	ladders := make([][]machine.Params, len(platform.Pools))
	poolParams := make([]machine.Params, len(platform.Pools))
	nets := make([]netmodel.Hockney, len(platform.Pools))
	for i, np := range platform.Pools {
		ladder, err := np.Spec.LadderParams()
		if err != nil {
			return nil, err
		}
		ladders[i] = ladder
		f := np.Spec.BaseFreq
		switch {
		case cfg.Freq != 0:
			f = cfg.Freq
		case cfg.PoolFreqs != nil && cfg.PoolFreqs[i] != 0:
			f = cfg.PoolFreqs[i]
		}
		mp, err := paramsAt(&np.Spec, ladders[i], f)
		if err != nil {
			return nil, err
		}
		poolParams[i] = *mp
		nets[i] = netmodel.Hockney{Ts: mp.Ts, Tb: mp.Tb}
	}

	if capacity := platform.TotalRanks(); cfg.Ranks > capacity {
		return nil, fmt.Errorf("cluster: %d ranks exceed %s capacity %d (one rank per node)",
			cfg.Ranks, platform, capacity)
	}

	params := make([]machine.Params, cfg.Ranks)
	rankPool := make([]int, cfg.Ranks)
	for r := range params {
		pi, err := platform.PoolOf(r)
		if err != nil {
			return nil, err
		}
		params[r] = poolParams[pi]
		rankPool[r] = pi
	}

	c := &Cluster{
		cfg:      cfg,
		platform: platform,
		rankPool: rankPool,
		ladders:  ladders,
		kernel:   sim.NewKernel(cfg.Seed),
		params:   params,
		alpha:    cfg.Alpha,
		nets:     nets,
		counters: make(perfctr.Set, cfg.Ranks),
		tracer:   trace.New(),
		execRNG:  rand.New(rand.NewSource(cfg.Seed ^ 0x5eed0001)),
		measRNG:  rand.New(rand.NewSource(cfg.Seed ^ 0x5eed0002)),
	}

	c.txFree = make([]units.Seconds, cfg.Ranks)
	c.rxFree = make([]units.Seconds, cfg.Ranks)
	c.busy = make([]ComponentBusy, cfg.Ranks)
	c.inflight = make([]inflightOp, cfg.Ranks)
	c.opActive = make([]bool, cfg.Ranks)
	c.banks = make([]energyBank, cfg.Ranks)
	c.retunes = make([]int64, cfg.Ranks)
	c.touches = make([]int64, cfg.Ranks)
	return c, nil
}

// paramsAt returns spec's machine vector at frequency f: the entry of the
// spec's evaluated ladder when f is one of its operating points, else a
// fresh Spec.AtFrequency(f) — the table is a cache of exactly those
// values, not a restriction to the ladder.
func paramsAt(spec *machine.Spec, ladder []machine.Params, f units.Hertz) (*machine.Params, error) {
	for i := range ladder {
		if ladder[i].Freq == f {
			return &ladder[i], nil
		}
	}
	mp, err := spec.AtFrequency(f)
	return &mp, err
}

// SetRankFrequency switches one rank to its own pool's machine vector at
// DVFS frequency f (a ladder-table lookup; an off-ladder f is evaluated
// against the pool Spec), effective from the current virtual time:
// operations already in flight keep the durations they were issued with,
// later operations use the new vector. Energy dissipated so far is banked
// at the outgoing parameters so TrueEnergy/MeasuredEnergy stay exact
// across the change — the banking is pool-agnostic, so heterogeneous
// retunes account exactly too. Nothing observes the change: the
// scheduler decision that made it (admit, boost, throttle, finish or
// kill) is its record.
func (c *Cluster) SetRankFrequency(rank int, f units.Hertz) error {
	r := c.checkRank(rank)
	if c.params[r].Freq == f {
		return nil
	}
	pi := c.rankPool[r]
	mp, err := paramsAt(&c.platform.Pools[pi].Spec, c.ladders[pi], f)
	if err != nil {
		return err
	}
	c.bankRank(r)
	c.params[r] = *mp
	c.retunes[r]++
	c.touches[r]++
	return nil
}

// bankRank integrates rank r's energy since its last banking point at the
// rank's current parameters and advances the banking point to now. The
// busy baseline attributes in-flight operations pro rata (rankBusy), so
// the portion of an in-flight operation executed before a frequency
// change is priced at the outgoing power deltas.
func (c *Cluster) bankRank(r int) {
	bk := &c.banks[r]
	idle, cpu, mem, cur := c.componentEnergySince(r, bk.tBase, bk.busyBase)
	bk.idle += idle
	bk.cpu += cpu
	bk.mem += mem
	bk.tBase = c.kernel.Now()
	bk.busyBase = cur
}

// Kernel returns the simulation kernel; callers spawn rank processes on it.
func (c *Cluster) Kernel() *sim.Kernel { return c.kernel }

// Ranks returns the number of provisioned ranks.
func (c *Cluster) Ranks() int { return len(c.params) }

// Params returns the machine vector of a rank.
func (c *Cluster) Params(rank int) machine.Params { return c.params[c.checkRank(rank)] }

// PoolOf returns the index of the platform pool hosting a rank.
func (c *Cluster) PoolOf(rank int) int { return c.rankPool[c.checkRank(rank)] }

// Alpha returns the configured overlap factor.
func (c *Cluster) Alpha() float64 { return c.alpha }

// Counters exposes the per-rank performance counters.
func (c *Cluster) Counters() perfctr.Set { return c.counters }

// Tracer exposes the TAU-style tracer.
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// checkRank is on every operation's path; the panic lives in badRank so
// the check itself inlines.
func (c *Cluster) checkRank(rank int) int {
	if rank < 0 || rank >= len(c.params) {
		c.badRank(rank)
	}
	return rank
}

//go:noinline
func (c *Cluster) badRank(rank int) {
	panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, len(c.params)))
}

// jitter returns d perturbed by a multiplicative Gaussian factor with the
// given relative standard deviation, clamped to stay positive.
func (c *Cluster) jitter(d units.Seconds, rel float64) units.Seconds {
	if rel <= 0 || d == 0 {
		return d
	}
	f := 1 + rel*c.execRNG.NormFloat64()
	if f < 0.1 {
		f = 0.1
	}
	return units.Seconds(float64(d) * f)
}

func (c *Cluster) noteEnd(t units.Seconds) {
	if t > c.wallEnd {
		c.wallEnd = t
	}
}

// Compute executes onChip instructions and offChip memory accesses on the
// rank's core: the process sleeps α·(onChip·tc + offChip·tm) of virtual
// time (with execution jitter) while the busy ledger accumulates the
// un-overlapped busy times used by the energy model.
func (c *Cluster) Compute(p *sim.Proc, rank int, onChip, offChip float64) {
	wall := c.StartCompute(rank, onChip, offChip, c.alpha)
	p.Sleep(wall)
	c.CompleteOp(rank)
}

// StartCompute begins an α-overlapped compute operation on a rank at the
// current virtual time without a backing process: it registers the
// counters and the in-flight operation and returns the operation's
// wall-clock duration. The caller must arrange for CompleteOp(rank) to
// run wall later or after — typically from a scheduled kernel event; the
// rank is held until then, its op read whole past the end. This is the
// event-driven fast path the power-budget scheduler executes job slices
// on, each job with its own α ∈ (0,1]; Compute is StartCompute at the
// cluster's α + Sleep + CompleteOp.
func (c *Cluster) StartCompute(rank int, onChip, offChip, alpha float64) units.Seconds {
	if onChip < 0 || offChip < 0 {
		panic(fmt.Sprintf("cluster: negative workload (%g,%g)", onChip, offChip))
	}
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("cluster: overlap factor α=%g outside (0,1]", alpha))
	}
	r := c.checkRank(rank)
	if c.opActive[r] {
		panic(fmt.Sprintf("cluster: rank %d already has an operation in flight", r))
	}
	mp := &c.params[r]
	dc := c.jitter(units.Seconds(onChip*float64(mp.Tc)), c.cfg.Noise.ComputeJitter)
	dm := c.jitter(units.Seconds(offChip*float64(mp.Tm)), c.cfg.Noise.MemoryJitter)

	ctr := &c.counters[r]
	ctr.AddCompute(onChip)
	ctr.AddMemory(offChip)

	wall := units.Seconds(alpha * float64(dc+dm))
	now := c.kernel.Now()
	c.inflight[r] = inflightOp{start: now, end: now + wall, dc: dc, dm: dm}
	c.opActive[r] = true
	return wall
}

// CompleteOp retires the in-flight operation StartCompute/StartComm
// registered on a rank: component busy times are credited to the
// rank's busy ledger and the measured makespan advances to now. It must
// run at or after the operation's end time.
func (c *Cluster) CompleteOp(rank int) {
	r := c.checkRank(rank)
	if !c.opActive[r] {
		panic(fmt.Sprintf("cluster: CompleteOp on rank %d with nothing in flight", r))
	}
	op := c.inflight[r]
	c.inflight[r] = inflightOp{}
	c.opActive[r] = false
	c.touches[r]++
	b := &c.busy[r]
	b.Compute += op.dc
	b.Memory += op.dm
	c.noteEnd(c.kernel.Now())
}

// AbortOp cancels the in-flight operation on a rank mid-way — the fault
// layer's path for killing a job's ops when the rank (or a sibling rank
// of the same job) dies. Busy time is credited pro rata to the fraction
// of the op's wall clock that elapsed, matching how the meters (rankBusy)
// attribute in-flight work, so the energy integral stays continuous
// through a kill. The instruction counters keep the full work registered
// at Start: the work was issued, the abort threw it away — which is
// exactly the lost-work story the fault accounting tells. A rank with
// nothing in flight is left untouched (killing an idle rank is legal).
func (c *Cluster) AbortOp(rank int) {
	r := c.checkRank(rank)
	if !c.opActive[r] {
		return
	}
	op := c.inflight[r]
	c.inflight[r] = inflightOp{}
	c.opActive[r] = false
	c.touches[r]++
	if op.dc != 0 || op.dm != 0 { // an op that prices nothing credits +0
		frac := 1.0
		if op.end > op.start {
			frac = min(max(float64(c.kernel.Now()-op.start)/float64(op.end-op.start), 0), 1)
		}
		b := &c.busy[r]
		b.Compute += units.Seconds(frac * float64(op.dc))
		b.Memory += units.Seconds(frac * float64(op.dm))
	}
	c.noteEnd(c.kernel.Now())
}

// MessageTime prices a message from src to dst (unscaled by α). A
// self-copy runs at memory bandwidth, priced as half a shared-memory
// transfer: negligible start-up and ~an order of magnitude more
// bandwidth than its pool's NIC, so a tenth of the pool's Ts and Tb.
// Every other message crosses the interconnect at its endpoints' pool
// vectors, the slower of each (max Ts, max Tb) when the pools differ.
func (c *Cluster) MessageTime(src, dst int, bytes units.Bytes) units.Seconds {
	s, d := c.checkRank(src), c.checkRank(dst)
	h := c.nets[c.rankPool[s]]
	if s == d {
		return netmodel.Hockney{Ts: h.Ts / 10, Tb: h.Tb / 10}.MessageTime(bytes) / 2
	}
	o := c.nets[c.rankPool[d]]
	return netmodel.Hockney{Ts: max(h.Ts, o.Ts), Tb: max(h.Tb, o.Tb)}.MessageTime(bytes)
}

// NetworkJitter perturbs a message duration with the configured jitter.
func (c *Cluster) NetworkJitter(d units.Seconds) units.Seconds {
	return c.jitter(d, c.cfg.Noise.NetJitter)
}

// ReserveLink atomically books the sender's transmit channel and the
// receiver's receive channel for a common interval of length d starting
// no earlier than now; the interval begins when both are free. A self
// message does not occupy the NIC. It returns the transfer interval.
func (c *Cluster) ReserveLink(now units.Seconds, src, dst int, d units.Seconds) (start, end units.Seconds) {
	if c.checkRank(src) == c.checkRank(dst) {
		return now, now + d
	}
	start = max(now, c.txFree[src], c.rxFree[dst])
	end = start + d
	c.txFree[src], c.rxFree[dst] = end, end
	return start, end
}

// RecordSend accounts a sent message on the sender's counters.
func (c *Cluster) RecordSend(src int, bytes units.Bytes) {
	c.counters[c.checkRank(src)].AddMessage(bytes)
}

// StartComm occupies a rank with a transfer of network time d for the
// α-overlapped wall time α·d it returns. The transfer is the rank's
// in-flight operation but prices no active delta (NIC power is in the
// flat Pother term), so it only holds the rank and, at its CompleteOp,
// extends the makespan. The caller must run CompleteOp(rank) at its end.
// alpha must lie in (0,1]. Only package bench calls it: a scheduler
// slice holds its compute op through its comm time instead.
func (c *Cluster) StartComm(rank int, d units.Seconds, alpha float64) units.Seconds {
	if d < 0 {
		panic(fmt.Sprintf("cluster: negative network time %v", d))
	}
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("cluster: overlap factor α=%g outside (0,1]", alpha))
	}
	r := c.checkRank(rank)
	if c.opActive[r] {
		panic(fmt.Sprintf("cluster: rank %d already has an operation in flight", r))
	}
	wall := units.Seconds(alpha * float64(d))
	now := c.kernel.Now()
	c.inflight[r] = inflightOp{start: now, end: now + wall}
	c.opActive[r] = true
	return wall
}

// NoteWall extends the measured makespan to t if t is later than every
// completion recorded so far. The MPI runtime calls it when ranks send,
// finish or unblock so that communication and pure waiting still count
// toward wall time.
func (c *Cluster) NoteWall(t units.Seconds) { c.noteEnd(t) }

// Wall returns the latest completion time recorded by any operation — the
// measured makespan Tp of the run.
func (c *Cluster) Wall() units.Seconds { return c.wallEnd }
