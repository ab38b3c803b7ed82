// Package npb hosts Go re-implementations of NAS-Parallel-Benchmark-style
// kernels (EP, FT, CG, IS, MG) that execute real numerics on the
// simulated MPI runtime.
//
// Each kernel performs its actual computation (FFTs transform real data,
// CG solves a real sparse system, …) so results can be verified, while
// the cost of that computation is charged to the virtual clock through
// rank.Compute(onChip, offChip) with documented operation counts. The
// communication structure is the real algorithm's (all-to-all transpose,
// row-team reductions, halo exchanges), so the model parameters M and B
// emerge from the trace rather than being asserted.
package npb

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/perfctr"
	"repro/internal/units"
)

// Kernel is one benchmark instance, sized for a specific run. A Kernel
// may be used for exactly one Run: it accumulates cross-rank state in
// shared memory (the simulated cluster is one address space).
type Kernel interface {
	// Name returns the benchmark identifier ("EP", "FT", …).
	Name() string
	// N returns the model problem size n for this instance.
	N() float64
	// Alpha returns the benchmark's computational-overlap factor, used
	// when provisioning the cluster (paper Table 2 / §VI.F).
	Alpha() float64
	// RunRank is the SPMD body executed by every rank.
	RunRank(r *mpi.Rank)
	// Verify checks the numerical result after the run completes.
	Verify() error
}

// Report summarises one benchmark execution on a simulated cluster.
type Report struct {
	Kernel   string
	N        float64
	P        int
	Makespan units.Seconds
	// Measured is the PowerPack-style (noisy) energy measurement;
	// True is the noise-free decomposition.
	Measured cluster.EnergyReport
	True     cluster.EnergyReport
	// Totals aggregates all ranks' counters (Won+ΔWon, Woff+ΔWoff as
	// executed, including jitter-free workload counts).
	Totals perfctr.Counters
	// M and B are the communication totals (Totals.Messages, Totals.BytesSent).
	M int64
	B float64
	// Alpha is the kernel's overlap factor α, as app.FromCounters takes it.
	Alpha float64
	// FinishTimes per rank (load balance diagnostics).
	FinishTimes []units.Seconds
}

// Run executes the kernel on the given provisioned cluster and verifies
// the result. The cluster must have been created fresh for this run.
func Run(cl *cluster.Cluster, k Kernel) (Report, error) {
	rt := mpi.New(cl)
	if err := rt.Run(k.RunRank); err != nil {
		return Report{}, fmt.Errorf("npb: %s failed: %w", k.Name(), err)
	}
	if err := k.Verify(); err != nil {
		return Report{}, fmt.Errorf("npb: %s verification failed: %w", k.Name(), err)
	}
	totals := cl.Counters().Total()
	return Report{
		Kernel:      k.Name(),
		N:           k.N(),
		P:           cl.Ranks(),
		Alpha:       k.Alpha(),
		Makespan:    rt.Makespan(),
		Measured:    cl.MeasuredEnergy(),
		True:        cl.TrueEnergy(),
		Totals:      totals,
		M:           totals.Messages,
		B:           totals.BytesSent,
		FinishTimes: rt.FinishTimes(),
	}, nil
}

// String renders the report for CLI output.
func (r Report) String() string {
	return fmt.Sprintf("%s n=%g p=%d time=%v energy=%v (M=%d B=%.4g)",
		r.Kernel, r.N, r.P, r.Makespan, r.Measured.Total, r.M, r.B)
}
