package cluster

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// EnergyReport is the PowerPack-style whole-run energy measurement,
// decomposed per component as in the paper's Eq. 7–9: total system energy
// is idle-state energy over the whole execution plus the active deltas of
// each component.
type EnergyReport struct {
	Wall  units.Seconds // measured makespan (α-overlapped wall time)
	Ranks int

	Idle   units.Joules // Σ_ranks Psys-idle · Wall
	CPU    units.Joules // Σ_ranks ΔPc · compute busy time
	Memory units.Joules // Σ_ranks ΔPm · memory busy time
	IO     units.Joules // Σ_ranks ΔPio · I/O busy time
	Total  units.Joules
}

// String renders the report.
func (e EnergyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%v ranks=%d total=%v", e.Wall, e.Ranks, e.Total)
	fmt.Fprintf(&b, " (idle=%v cpu=%v mem=%v io=%v)", e.Idle, e.CPU, e.Memory, e.IO)
	return b.String()
}

// componentEnergySince integrates one rank's dissipation from a past
// banking point (time plus busy snapshot) to now, priced at the rank's
// current machine vector, and returns the current snapshot for the
// caller's next baseline. Busy deltas come from rankBusy, which
// attributes in-flight operations pro rata, so the deltas are monotone
// even across a mid-operation banking point. Every per-rank meter sits on
// this one reader: the cluster's own DVFS energy banks (bankRank),
// external per-rank meters (EnergySince) and the profiler's ReadMeter.
func (c *Cluster) componentEnergySince(r int, since units.Seconds, base ComponentBusy) (idle, cpu, mem, io units.Joules, cur ComponentBusy) {
	cur = c.rankBusy(r)
	mp := &c.params[r]
	idle = units.Energy(mp.PsysIdle, c.kernel.Now()-since)
	cpu = units.Energy(mp.DeltaPc, cur.Compute-base.Compute)
	mem = units.Energy(mp.DeltaPm, cur.Memory-base.Memory)
	io = units.Energy(mp.DeltaPio, cur.IO-base.IO)
	return idle, cpu, mem, io, cur
}

// EnergySince returns the total energy rank r dissipated since a banking
// point the caller recorded (a time and the busy snapshot taken then),
// priced at the rank's current machine vector, plus the snapshot to use
// as the next baseline. Callers tracking piecewise energy across DVFS
// retunes (the sched package's per-job meters) bank with this before
// every SetRankFrequency.
func (c *Cluster) EnergySince(rank int, since units.Seconds, base ComponentBusy) (units.Joules, ComponentBusy) {
	idle, cpu, mem, io, cur := c.componentEnergySince(c.checkRank(rank), since, base)
	return idle + cpu + mem + io, cur
}

// MeterReading is one reading of a rank's meter, everything derived from
// a single busy snapshot taken at the current virtual time.
type MeterReading struct {
	// Busy is the rank's cumulative per-component busy time, in-flight
	// work attributed pro rata (BusySnapshot of the one rank).
	Busy ComponentBusy
	// Retunes counts the effective SetRankFrequency changes the rank has
	// absorbed; samplers compare counts to detect windows that span an
	// operating-point change.
	Retunes int64
	// Idle, CPU, Memory and IO are the rank's cumulative energy
	// decomposition from provisioning to now, piecewise-exact across DVFS
	// retunes: the banked segments priced at their own operating points
	// plus the tail at the current vector. Differencing consecutive
	// readings gives exact window energies no matter how many retunes the
	// window spans — the power profiler's correction path rests on this
	// (Idle is the lumped Psys-idle integral; the rest are per category).
	Idle, CPU, Memory, IO units.Joules
}

// ReadMeter reads rank r's meter. The busy snapshot is a pure function of
// the rank's counters, its in-flight operation and the clock, so deriving
// the energies from the same snapshot Busy reports is bit-identical to
// taking one snapshot per quantity — and a third of the work.
func (c *Cluster) ReadMeter(rank int) MeterReading {
	r := c.checkRank(rank)
	bk := &c.banks[r]
	idle, cpu, mem, io, cur := c.componentEnergySince(r, bk.tBase, bk.busyBase)
	return MeterReading{
		Busy:    cur,
		Retunes: c.retunes[r],
		Idle:    bk.idle + idle,
		CPU:     bk.cpu + cpu,
		Memory:  bk.mem + mem,
		IO:      bk.io + io,
	}
}

// energy computes the exact (noise-free) energy decomposition. Each rank
// contributes its banked energy from earlier DVFS operating points plus
// the tail since the last frequency change priced at the current vector;
// with no mid-run frequency changes the banks are zero and this reduces
// to the single-operating-point decomposition of Eq. 7–9. Idle power is
// integrated to the makespan, or to the last frequency change if that
// came later (a rank switched while the cluster idles still draws power).
// Busy tails use rankBusy so a mid-operation query stays monotone
// (in-flight work counts pro rata, never negatively).
func (c *Cluster) energy() EnergyReport {
	rep := EnergyReport{Wall: c.wallEnd, Ranks: c.Ranks()}
	for r := 0; r < c.Ranks(); r++ {
		mp := &c.params[r]
		busy := c.rankBusy(r)
		bk := &c.banks[r]
		idleTail := rep.Wall - bk.tBase
		if idleTail < 0 {
			idleTail = 0
		}
		rep.Idle += bk.idle + units.Energy(mp.PsysIdle, idleTail)
		rep.CPU += bk.cpu + units.Energy(mp.DeltaPc, busy.Compute-bk.busyBase.Compute)
		rep.Memory += bk.mem + units.Energy(mp.DeltaPm, busy.Memory-bk.busyBase.Memory)
		rep.IO += bk.io + units.Energy(mp.DeltaPio, busy.IO-bk.busyBase.IO)
	}
	rep.Total = rep.Idle + rep.CPU + rep.Memory + rep.IO
	return rep
}

// TrueEnergy returns the exact energy decomposition with no meter noise.
func (c *Cluster) TrueEnergy() EnergyReport { return c.energy() }

// MeasuredEnergy returns the energy a PowerPack-style meter would report:
// the exact decomposition perturbed by the configured power-measurement
// jitter. Repeated calls draw fresh meter noise (like repeated physical
// measurements); the sequence is deterministic in the cluster seed.
func (c *Cluster) MeasuredEnergy() EnergyReport {
	rep := c.energy()
	j := c.cfg.Noise.PowerJitter
	if j > 0 {
		perturb := func(e units.Joules) units.Joules {
			f := 1 + j*c.measRNG.NormFloat64()
			if f < 0 {
				f = 0
			}
			return units.Joules(float64(e) * f)
		}
		rep.Idle = perturb(rep.Idle)
		rep.CPU = perturb(rep.CPU)
		rep.Memory = perturb(rep.Memory)
		rep.IO = perturb(rep.IO)
		rep.Total = rep.Idle + rep.CPU + rep.Memory + rep.IO
	}
	return rep
}

// ComponentBusy is a snapshot of cumulative per-component busy time summed
// over a set of ranks; the power profiler differentiates consecutive
// snapshots to obtain component utilisation within a sampling window.
type ComponentBusy struct {
	Compute units.Seconds
	Memory  units.Seconds
	IO      units.Seconds
	Network units.Seconds
}

// BusySince subtracts an earlier snapshot.
func (b ComponentBusy) BusySince(prev ComponentBusy) ComponentBusy {
	return ComponentBusy{
		Compute: b.Compute - prev.Compute,
		Memory:  b.Memory - prev.Memory,
		IO:      b.IO - prev.IO,
		Network: b.Network - prev.Network,
	}
}

// BusySnapshot sums cumulative busy times over the given ranks (all ranks
// if none specified) as of the current virtual time, attributing
// in-progress operations pro rata so power sampling sees sustained load
// rather than spikes at operation boundaries.
func (c *Cluster) BusySnapshot(ranks ...int) ComponentBusy {
	now := c.kernel.Now()
	var b ComponentBusy
	if len(ranks) == 0 {
		for r := range c.params {
			c.addBusy(&b, r, now)
		}
	}
	for _, r := range ranks {
		c.addBusy(&b, c.checkRank(r), now)
	}
	return b
}

// rankBusy is BusySnapshot for one (already checked) rank — the reader
// under every per-rank meter.
func (c *Cluster) rankBusy(r int) ComponentBusy {
	var b ComponentBusy
	c.addBusy(&b, r, c.kernel.Now())
	return b
}

// addBusy adds rank r's cumulative busy times as of now to b: the
// counters of retired operations, then the in-flight operation pro rata.
func (c *Cluster) addBusy(b *ComponentBusy, r int, now units.Seconds) {
	ctr := c.counters.Rank(r)
	b.Compute += ctr.ComputeTime
	b.Memory += ctr.MemoryTime
	b.IO += ctr.IOTime
	b.Network += ctr.NetworkTime
	if fl := &c.inflight[r]; fl.end > fl.start {
		frac := float64(now-fl.start) / float64(fl.end-fl.start)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		b.Compute += units.Seconds(frac * float64(fl.dc))
		b.Memory += units.Seconds(frac * float64(fl.dm))
		b.Network += units.Seconds(frac * float64(fl.dnet))
	}
}

// IdlePower sums Psys-idle over the given ranks (all if none specified).
func (c *Cluster) IdlePower(ranks ...int) units.Watts {
	var w units.Watts
	if len(ranks) == 0 {
		for r := range c.params {
			w += c.params[r].PsysIdle
		}
	}
	for _, r := range ranks {
		w += c.params[c.checkRank(r)].PsysIdle
	}
	return w
}
