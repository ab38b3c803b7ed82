// Package sched is the power-budget cluster scheduler: the runtime layer
// that turns the iso-energy-efficiency model from a single-job planning
// tool into a system serving a stream of jobs under a shared cluster
// power cap — the "power-constrained parallel computation" of the
// paper's title at fleet scale.
//
// The scheduler speaks the platform contract (machine.Platform): a
// cluster is a set of typed node pools, each a Spec × node count with
// its own DVFS ladder, and every job runs entirely within one pool —
// the model's parameter vector is per node type. The classic
// homogeneous cluster is the one-pool special case
// (machine.Homogeneous) and reproduces the single-Spec scheduler's
// behaviour byte for byte.
//
// The subsystem splits into two cooperating halves (DESIGN.md §6):
//
//   - An admission controller. When capacity frees up (job arrival or
//     completion), the configured Policy picks which queued jobs start
//     and at which (pool, p, f) operating point, scanning the same
//     per-pool grids the offline optimiser uses
//     (analysis.ForEachOperatingPoint), each (pool, width) row priced
//     once per job by opcache.(*Cache).Eval into the job's queue entry,
//     which owns it until the job leaves; every later scheduling edge
//     reads it there. Pool choice is policy-visible and
//     deterministic — ee-max takes the EE-best pool its slack rule
//     allows, fifo drains onto the lowest-ranked pool that fits.
//     Admission is conservative: a job's power cost is its sustained
//     worst-case draw (envelope over its pool's ladder, computed in
//     opcache), so the measured cluster draw can never exceed the cap
//     between control actions.
//
//   - A runtime DVFS governor. A power.Profiler samples the simulated
//     cluster on a fixed virtual-time grid; the governor subscribes to
//     those samples, audits them against the cap (counting violations),
//     and — for DVFS-capable policies — throttles jobs when the
//     predicted draw exceeds the cap and boosts jobs back up their own
//     pool's ladder when headroom frees, but only where the model says
//     the job's iso-energy-efficiency does not degrade. Frequency
//     changes take effect mid-run through cluster.SetRankFrequency
//     (which retunes each rank against its pool's Spec), and with
//     Config.EdgeRetune the same control pass also runs on every
//     admission/completion edge, cutting control latency to zero.
//
// Jobs execute as real discrete-event work on the shared cluster, but
// purely through timer callbacks on the kernel's event loop (no Proc is
// spawned, so no goroutine per rank): each slice is a cluster.StartCompute/
// StartComm registration retired by CompleteOp at its end event, so
// per-component busy time, the power trace, and the energy
// decomposition all come from the same substrate the NPB kernels use,
// and a governor frequency change re-prices the remaining slices
// automatically. A job runs as event chains over spans of its rank set
// (runChain): one chain over the whole set when execution is noise-free,
// one per rank when jitter desynchronises them.
//
// Three shipped policies bracket the design space: FIFO at uniform base
// frequency (the baseline every batch system implements), greedy EE-max
// (admit in priority order at the operating point maximising EE), and an
// iso-energy-efficiency-aware fair share (the cap is divided among
// waiting jobs in proportion to priority, each share optimised for EE).
// cmd/schedrun races the policies head to head on one synthetic trace.
//
// The budget is one cap timeline (capplan.Plan): Config.Cap, the paper's
// fixed constraint, is shorthand for a one-window plan and Config.Plan
// spells out a time-varying one (demand-response windows, diurnal
// tariffs, carbon-intensity series). Admission charges each job's
// envelope against the minimum cap over its predicted lifetime, the
// backfill shadow walk reserves against the timeline, every breakpoint
// is a first-class scheduling edge (the governor throttles one sampling
// interval ahead of each downward step and boosts/re-admits on rises),
// and the audit judges every sample by the cap in force at its own
// instant — see DESIGN.md §8 and the per-window accounting in
// Result.Windows.
package sched
