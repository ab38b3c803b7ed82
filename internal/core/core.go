// Package core implements the iso-energy-efficiency model of Song et al.
// (IPDPS 2011) — the paper's primary contribution.
//
// The model predicts the total energy of sequential and parallel
// executions of an application from two parameter vectors:
//
//   - machine-dependent (Table 1): tc, tm, Ts, Tb, ΔPc, ΔPm, Psys-idle,
//     all functions of CPU frequency f and network bandwidth
//     (package machine);
//   - application-dependent (Table 2): α, Won, Woff, ΔWon, ΔWoff, M, B,
//     functions of problem size n and parallelism p (package app).
//
// With those, the model chain is (equation numbers from the paper):
//
//	T1   = Won·tc + Woff·tm + Tio                        (5)
//	T1ʳᵉᵃˡ = α·T1                                        (6)
//	E1   = α·T1·Psys-idle + Won·tc·ΔPc + Woff·tm·ΔPm
//	       + Tio·ΔPio                                    (13)
//	Tp   = α·[(Won+ΔWon)/p·tc + (Woff+ΔWoff)/p·tm
//	       + (M·Ts + B·Tb)/p + Tio/p]                    (10,17)
//	Ep   = p·Tp·Psys-idle + (Won+ΔWon)·tc·ΔPc
//	       + (Woff+ΔWoff)·tm·ΔPm + Tio·ΔPio              (15,18)
//	Eo   = Ep − E1                                       (1,16)
//	EEF  = Eo / E1                                       (3,19)
//	EE   = 1/(1+EEF) = E1/Ep                             (2,4,21)
//
// EE = 1 is ideal iso-energy-efficiency (parallel execution costs no more
// energy than sequential); EE falls toward 0 as parallel overhead energy
// grows. The network's power delta is ignored (Eq. 11→12: measured
// ΔP_NIC was insignificant on both of the paper's clusters).
package core

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/units"
)

// Workload is the application-dependent parameter vector evaluated at a
// concrete problem size n and parallelism p (the paper's Table 2).
type Workload struct {
	// Alpha is the computational overlap factor α ∈ (0,1] (Eq. 6): the
	// ratio of real execution time to the sum of component times.
	Alpha float64
	// WOn is the total on-chip computation workload (instructions).
	WOn float64
	// WOff is the total off-chip memory access workload (accesses).
	WOff float64
	// DWOn is the total parallel computation overhead ΔWon (instructions
	// beyond the sequential workload, summed over all p processors).
	DWOn float64
	// DWOff is the total parallel memory overhead ΔWoff.
	DWOff float64
	// M is the total number of messages across all processors.
	M float64
	// B is the total number of bytes transmitted.
	B float64
	// TIO is the total (flat-model) I/O device time; zero for the
	// paper's benchmarks (§VI.B).
	TIO units.Seconds
	// P is the number of processors the parallel quantities refer to.
	P int
}

// Validate reports whether the workload vector is usable. The parallel
// overheads ΔWon/ΔWoff may be negative — the paper's own CG fit has a
// negative ΔWoff because per-processor working sets start fitting in
// cache — but the total parallel workloads must stay non-negative.
func (w Workload) Validate() error {
	switch {
	case w.Alpha <= 0 || w.Alpha > 1:
		return fmt.Errorf("core: overlap factor α=%g outside (0,1]", w.Alpha)
	case w.WOn < 0 || w.WOff < 0:
		return errors.New("core: negative sequential workload")
	case w.WOn+w.DWOn < 0 || w.WOff+w.DWOff < 0:
		return errors.New("core: negative total parallel workload (overhead below -W)")
	case w.M < 0 || w.B < 0:
		return errors.New("core: negative communication volume")
	case w.TIO < 0:
		return errors.New("core: negative I/O time")
	case w.P < 1:
		return fmt.Errorf("core: processor count %d < 1", w.P)
	}
	return nil
}

// Model pairs one machine operating point with one workload instance.
type Model struct {
	Machine machine.Params
	App     Workload
}

// Prediction carries every model output for one (machine, workload)
// instance.
type Prediction struct {
	// Times.
	T1 units.Seconds // sequential wall time α·T (Eq. 6)
	Tp units.Seconds // parallel wall time (Eq. 10)

	// Energies.
	E1 units.Joules // sequential energy (Eq. 13)
	Ep units.Joules // parallel energy (Eq. 15/18)
	Eo units.Joules // parallel energy overhead (Eq. 16)

	// Dimensionless figures of merit.
	EEF     float64 // energy efficiency factor Eo/E1 (Eq. 19)
	EE      float64 // iso-energy-efficiency 1/(1+EEF) (Eq. 21)
	Speedup float64 // T1/Tp
	PE      float64 // performance efficiency T1/(p·Tp) — Grama baseline

	// Average parallel system power Ep/Tp, for power-constrained
	// planning.
	AvgPower units.Watts
}

// sequentialComponents returns the un-overlapped component times of the
// sequential execution.
func (m *Model) sequentialComponents() (tc, tm units.Seconds) {
	tc = units.Seconds(m.App.WOn * float64(m.Machine.Tc))
	tm = units.Seconds(m.App.WOff * float64(m.Machine.Tm))
	return tc, tm
}

// SequentialTime returns the real (overlapped) sequential execution time
// T1 = α(Won·tc + Woff·tm + Tio) (Eq. 5–6).
func (m *Model) SequentialTime() units.Seconds {
	tc, tm := m.sequentialComponents()
	return units.Seconds(m.App.Alpha * float64(tc+tm+m.App.TIO))
}

// SequentialEnergy returns E1 (Eq. 13): idle power over the real
// execution time plus the component activity deltas.
func (m *Model) SequentialEnergy() units.Joules {
	tc, tm := m.sequentialComponents()
	e := units.Energy(m.Machine.PsysIdle, m.SequentialTime())
	e += units.Energy(m.Machine.DeltaPc, tc)
	e += units.Energy(m.Machine.DeltaPm, tm)
	e += units.Energy(m.Machine.DeltaPio, m.App.TIO)
	return e
}

// CommTime returns the total accumulated network time over all
// processors, M·Ts + B·Tb (Eq. 17, Hockney).
func (m *Model) CommTime() units.Seconds {
	return units.Seconds(m.App.M*float64(m.Machine.Ts) + m.App.B*float64(m.Machine.Tb))
}

// ParallelTime returns the per-processor real execution time Tp under the
// homogeneous-distribution assumption (Eq. 10): every processor carries
// 1/p of the total workload, overhead and communication.
func (m *Model) ParallelTime() units.Seconds {
	p := float64(m.App.P)
	compute := (m.App.WOn + m.App.DWOn) / p * float64(m.Machine.Tc)
	mem := (m.App.WOff + m.App.DWOff) / p * float64(m.Machine.Tm)
	comm := float64(m.CommTime()) / p
	io := float64(m.App.TIO) / p
	return units.Seconds(m.App.Alpha * (compute + mem + comm + io))
}

// ParallelEnergy returns Ep (Eq. 15/18): all p processors burn idle power
// for the parallel wall time, while the total (sequential + overhead)
// workloads burn the component deltas.
func (m *Model) ParallelEnergy() units.Joules {
	p := float64(m.App.P)
	e := units.Joules(p * float64(m.Machine.PsysIdle) * float64(m.ParallelTime()))
	e += units.Energy(m.Machine.DeltaPc, units.Seconds((m.App.WOn+m.App.DWOn)*float64(m.Machine.Tc)))
	e += units.Energy(m.Machine.DeltaPm, units.Seconds((m.App.WOff+m.App.DWOff)*float64(m.Machine.Tm)))
	e += units.Energy(m.Machine.DeltaPio, m.App.TIO)
	return e
}

// Predict evaluates the whole model chain.
func (m *Model) Predict() (Prediction, error) {
	if err := m.Machine.Validate(); err != nil {
		return Prediction{}, err
	}
	if err := m.App.Validate(); err != nil {
		return Prediction{}, err
	}
	var pr Prediction
	pr.T1 = m.SequentialTime()
	pr.Tp = m.ParallelTime()
	pr.E1 = m.SequentialEnergy()
	pr.Ep = m.ParallelEnergy()
	pr.Eo = pr.Ep - pr.E1
	if pr.E1 <= 0 {
		return Prediction{}, errors.New("core: sequential energy is non-positive; degenerate workload")
	}
	pr.EEF = float64(pr.Eo) / float64(pr.E1)
	pr.EE = 1 / (1 + pr.EEF)
	if pr.Tp > 0 {
		pr.Speedup = float64(pr.T1) / float64(pr.Tp)
		pr.PE = pr.Speedup / float64(m.App.P)
		pr.AvgPower = units.Power(pr.Ep, pr.Tp)
	}
	return pr, nil
}

// MeasuredEE computes iso-energy-efficiency from two measured energies:
// EE = E1/Ep (Eq. 2). It returns an error if either is non-positive.
func MeasuredEE(e1, ep units.Joules) (float64, error) {
	if e1 <= 0 || ep <= 0 {
		return 0, fmt.Errorf("core: non-positive measured energies E1=%v Ep=%v", e1, ep)
	}
	return float64(e1) / float64(ep), nil
}

// PredictionError returns the relative error |predicted−measured|/measured
// used throughout the paper's validation (Figures 3–4).
func PredictionError(predicted, measured units.Joules) float64 {
	if measured == 0 {
		return 0
	}
	d := float64(predicted - measured)
	if d < 0 {
		d = -d
	}
	return d / float64(measured)
}
