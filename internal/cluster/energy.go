package cluster

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// EnergyReport is the PowerPack-style whole-run energy measurement,
// decomposed per component as in the paper's Eq. 7–9: total system energy
// is idle-state energy over the whole execution plus the active deltas of
// each component. The simulated workloads do no disk I/O (the paper's
// benchmarks are not disk intensive, §IV.B), so no ΔPio term accrues.
type EnergyReport struct {
	Wall  units.Seconds // measured makespan (α-overlapped wall time)
	Ranks int

	Idle   units.Joules // Σ_ranks Psys-idle · Wall
	CPU    units.Joules // Σ_ranks ΔPc · compute busy time
	Memory units.Joules // Σ_ranks ΔPm · memory busy time
	Total  units.Joules
}

// String renders the report.
func (e EnergyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%v ranks=%d total=%v", e.Wall, e.Ranks, e.Total)
	fmt.Fprintf(&b, " (idle=%v cpu=%v mem=%v)", e.Idle, e.CPU, e.Memory)
	return b.String()
}

// componentEnergySince integrates one rank's dissipation from a past
// banking point (time plus busy snapshot) to now, priced at the rank's
// current machine vector, and returns the current snapshot for the
// caller's next baseline. Busy deltas come from rankBusy, which
// attributes in-flight operations pro rata, so the deltas are monotone
// even across a mid-operation banking point. Every per-rank meter sits on
// this one reader: the cluster's own DVFS energy banks (bankRank),
// external per-rank meters (EnergySince) and the profiler's StepMeter.
func (c *Cluster) componentEnergySince(r int, since units.Seconds, base ComponentBusy) (idle, cpu, mem units.Joules, cur ComponentBusy) {
	cur = c.rankBusy(r)
	mp := &c.params[r]
	idle = units.Energy(mp.PsysIdle, c.kernel.Now()-since)
	cpu = units.Energy(mp.DeltaPc, cur.Compute-base.Compute)
	mem = units.Energy(mp.DeltaPm, cur.Memory-base.Memory)
	return idle, cpu, mem, cur
}

// EnergySince returns the total energy rank r dissipated since a banking
// point the caller recorded (a time and the busy snapshot taken then),
// priced at the rank's current machine vector, plus the snapshot to use
// as the next baseline. Callers tracking piecewise energy across DVFS
// retunes (the sched package's per-job meters) bank with this before
// every SetRankFrequency.
func (c *Cluster) EnergySince(rank int, since units.Seconds, base ComponentBusy) (units.Joules, ComponentBusy) {
	idle, cpu, mem, cur := c.componentEnergySince(c.checkRank(rank), since, base)
	return idle + cpu + mem, cur
}

// Meter is one reader's running reading of a rank's meter, advanced in
// place by StepMeter: the reading it took last (unexported) and what the
// last step measured over the window since the step before. A zero Meter
// reads from provisioning.
type Meter struct {
	// Busy is the busy time the rank accrued in the last stepped window,
	// in-flight work attributed pro rata. Idle, CPU and Memory are the
	// window's exact component energies, piecewise across DVFS retunes:
	// each segment priced at its own operating point (Idle is the lumped
	// Psys-idle integral). A MeterQuiet step leaves all four as they
	// were.
	Busy              ComponentBusy
	Idle, CPU, Memory units.Joules

	// busy and idle…mem are the cumulative readings at the last step;
	// touches and retunes the rank's counts then.
	busy             ComponentBusy
	touches, retunes int64
	idle, cpu, mem   units.Joules
}

// MeterStep is what StepMeter found in a rank's window.
type MeterStep uint8

const (
	// MeterQuiet: nothing touched the rank and nothing is in flight, so
	// its busy time and active energies are those of the last step; only
	// the idle integral advanced.
	MeterQuiet MeterStep = iota
	// MeterSteady: the rank kept one operating point; Busy is exact and
	// the window's power is its vector's idle plus ΔP × utilisation.
	MeterSteady
	// MeterRetuned: the window spans ≥ 1 effective retune; Busy and the
	// window energies are exact, and only the energies price it right.
	MeterRetuned
)

// StepMeter advances m to rank r's reading now. A rank with nothing in
// flight whose touch count has not moved since m's last step costs one
// idle product: every mutator of its busy ledger or vector bumps the
// count (StartCompute and StartComm need not — the operation stays in
// flight, past its end too, until CompleteOp or AbortOp bumps it). Any
// other rank takes one busy snapshot and its cumulative energies,
// differenced against m in place. Each cumulative quantity is the expression a full reading
// evaluates, so consecutive steps difference bit-identical readings.
func (c *Cluster) StepMeter(rank int, m *Meter) MeterStep {
	r := c.checkRank(rank)
	bk := &c.banks[r]
	if !c.opActive[r] && c.touches[r] == m.touches {
		m.idle = bk.idle + units.Energy(c.params[r].PsysIdle, c.kernel.Now()-bk.tBase)
		return MeterQuiet
	}
	idle, cpu, mem, cur := c.componentEnergySince(r, bk.tBase, bk.busyBase)
	idle, cpu, mem = bk.idle+idle, bk.cpu+cpu, bk.mem+mem
	m.Busy = cur.BusySince(m.busy)
	m.Idle, m.CPU, m.Memory = idle-m.idle, cpu-m.cpu, mem-m.mem
	m.busy, m.idle, m.cpu, m.mem = cur, idle, cpu, mem
	m.touches = c.touches[r]
	if m.retunes == c.retunes[r] {
		return MeterSteady
	}
	m.retunes = c.retunes[r]
	return MeterRetuned
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
	}
	rep.Total = rep.Idle + rep.CPU + rep.Memory
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
		rep.Total = rep.Idle + rep.CPU + rep.Memory
	}
	return rep
}

// ComponentBusy is a snapshot of one rank's cumulative busy time in the
// two components whose active deltas the energy model prices; the power
// profiler differentiates consecutive snapshots to obtain component
// utilisation within a sampling window.
type ComponentBusy struct {
	Compute units.Seconds
	Memory  units.Seconds
}

// BusySince subtracts an earlier snapshot.
func (b ComponentBusy) BusySince(prev ComponentBusy) ComponentBusy {
	return ComponentBusy{Compute: b.Compute - prev.Compute, Memory: b.Memory - prev.Memory}
}

// rankBusy returns rank r's cumulative busy times as of the current
// virtual time — the ledger of retired operations, then the in-flight
// operation pro rata, so power sampling sees sustained load rather than
// spikes at operation boundaries. An op read past its end counts whole,
// and one that prices nothing (a StartComm transfer) adds nothing. It is
// the reader under every per-rank meter; r must already be checked.
func (c *Cluster) rankBusy(r int) ComponentBusy {
	b := c.busy[r]
	if fl := &c.inflight[r]; (fl.dc != 0 || fl.dm != 0) && fl.end > fl.start {
		frac := min(max(float64(c.kernel.Now()-fl.start)/float64(fl.end-fl.start), 0), 1)
		b.Compute += units.Seconds(frac * float64(fl.dc))
		b.Memory += units.Seconds(frac * float64(fl.dm))
	}
	return b
}
