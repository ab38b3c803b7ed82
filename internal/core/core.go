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
//
// The chain is implemented once, in PredictValidated, which computes T1
// and Tp once each for E1 and Ep. Model.Predict validates both vectors
// and calls it; opcache calls it per ladder point, having validated the
// ladder once per spec and the workload once per row.
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
// Every bound is written as the negation of the valid range, so a NaN,
// which fails every comparison, is rejected too.
func (w Workload) Validate() error {
	switch {
	case !(w.Alpha > 0 && w.Alpha <= 1):
		return fmt.Errorf("core: overlap factor α=%g outside (0,1]", w.Alpha)
	case !(w.WOn >= 0 && w.WOff >= 0):
		return errors.New("core: negative or NaN sequential workload")
	case !(w.WOn+w.DWOn >= 0 && w.WOff+w.DWOff >= 0):
		return errors.New("core: negative or NaN total parallel workload (overhead below -W)")
	case !(w.M >= 0 && w.B >= 0):
		return errors.New("core: negative or NaN communication volume")
	case !(w.TIO >= 0):
		return errors.New("core: negative or NaN I/O time")
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

// commTime is M·Ts + B·Tb (Eq. 17, Hockney).
func commTime(mp *machine.Params, w *Workload) units.Seconds {
	return units.Seconds(w.M*float64(mp.Ts) + w.B*float64(mp.Tb))
}

// SequentialTime returns the real (overlapped) sequential execution time
// T1 (Eq. 5–6).
func (m *Model) SequentialTime() units.Seconds {
	var pr Prediction
	_ = PredictValidated(&pr, &m.Machine, &m.App) // T1 is set on error too
	return pr.T1
}

// SequentialEnergy returns E1 (Eq. 13).
func (m *Model) SequentialEnergy() units.Joules {
	var pr Prediction
	_ = PredictValidated(&pr, &m.Machine, &m.App) // E1 is set on error too
	return pr.E1
}

// CommTime returns the network time summed over all processors (Eq. 17).
func (m *Model) CommTime() units.Seconds { return commTime(&m.Machine, &m.App) }

// Predict validates both vectors and evaluates the whole model chain.
func (m *Model) Predict() (Prediction, error) {
	if err := m.Machine.Validate(); err != nil {
		return Prediction{}, err
	}
	if err := m.App.Validate(); err != nil {
		return Prediction{}, err
	}
	var pr Prediction
	if err := PredictValidated(&pr, &m.Machine, &m.App); err != nil {
		return Prediction{}, err
	}
	return pr, nil
}

// PredictValidated evaluates the model chain into pr for vectors the
// caller has validated. Its one error is a degenerate workload, which
// leaves pr's times and energies set.
func PredictValidated(pr *Prediction, mp *machine.Params, w *Workload) error {
	// T1 = α(Won·tc + Woff·tm + Tio) (Eq. 5–6); E1 (Eq. 13) is idle
	// power over T1 plus the component activity deltas.
	tc := units.Seconds(w.WOn * float64(mp.Tc))
	tm := units.Seconds(w.WOff * float64(mp.Tm))
	t1 := units.Seconds(w.Alpha * float64(tc+tm+w.TIO))
	e1 := units.Energy(mp.PsysIdle, t1)
	e1 += units.Energy(mp.DeltaPc, tc)
	e1 += units.Energy(mp.DeltaPm, tm)
	e1 += units.Energy(mp.DeltaPio, w.TIO)
	// Tp (Eq. 10): each of the p processors carries 1/p of the total
	// workload, overhead and communication. Ep (Eq. 15/18): p·Psys-idle
	// over Tp plus the total workloads' component deltas.
	p := float64(w.P)
	compute := (w.WOn + w.DWOn) / p * float64(mp.Tc)
	mem := (w.WOff + w.DWOff) / p * float64(mp.Tm)
	comm := float64(commTime(mp, w)) / p
	io := float64(w.TIO) / p
	tp := units.Seconds(w.Alpha * (compute + mem + comm + io))
	ep := units.Joules(p * float64(mp.PsysIdle) * float64(tp))
	ep += units.Energy(mp.DeltaPc, units.Seconds((w.WOn+w.DWOn)*float64(mp.Tc)))
	ep += units.Energy(mp.DeltaPm, units.Seconds((w.WOff+w.DWOff)*float64(mp.Tm)))
	ep += units.Energy(mp.DeltaPio, w.TIO)
	pr.T1, pr.Tp, pr.E1, pr.Ep, pr.Eo = t1, tp, e1, ep, ep-e1
	if e1 <= 0 {
		return errors.New("core: sequential energy is non-positive; degenerate workload")
	}
	pr.EEF = float64(pr.Eo) / float64(e1)
	pr.EE = 1 / (1 + pr.EEF)
	pr.Speedup, pr.PE, pr.AvgPower = 0, 0, 0
	if tp > 0 {
		pr.Speedup = float64(t1) / float64(tp)
		pr.PE = pr.Speedup / p
		pr.AvgPower = units.Power(ep, tp)
	}
	return nil
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
