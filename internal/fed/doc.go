// Package fed federates N power-constrained clusters under one global
// power/carbon/cost budget — the sharding layer above internal/sched.
//
// Each Site wraps an independent sched.Scheduler with its own
// machine.Platform, optional site-local cap ceiling, optional
// carbon-intensity signal, and optional fault plan (ParseSites reads the
// command-line spelling). New validates the configuration and builds
// every site's scheduler — what it rejects is configuration — and Run
// executes every site concurrently (one goroutine + sim.Kernel per
// site) and merges the per-site results deterministically: schedules
// depend only on (seed, sites, plans, jobs), never on goroutine
// interleaving or GOMAXPROCS.
//
// Two policy axes shape a federated run:
//
//   - A SplitPolicy divides each global budget window across sites.
//     Every site is guaranteed GuaranteeFrac of its static share of
//     every window; the remainder is discretionary, steered by the
//     policy — static-share (by weight), greedy-ee (toward sites whose
//     current operating mix buys the most energy-efficiency per watt),
//     carbon-min (away from carbon-dirty sites, window by window).
//   - A RoutePolicy assigns each submitted job to a site in a
//     deterministic pre-simulation pass. Pools with equal ladder tables
//     share one router opcache.Cache, so each (ladder table, width) row
//     of the job is priced once per job, into buffers the router reuses,
//     and read by every site that runs it — ee (best predicted
//     energy-efficiency, with a spill rule when the best site's queue
//     backlog saturates), jct (earliest predicted completion), rr
//     (round-robin).
//
// Re-negotiation: policies that read live site state (greedy-ee) run
// against revisable per-site plans. Un-negotiated future windows carry
// the guaranteed floor; at each global breakpoint every site pauses at
// a common sim-time barrier, the last arriver re-derives the *next*
// window's caps from each site's reported mix efficiency
// (sched.Scheduler.MixEE, handed to the policy as SplitContext.MixEE;
// capplan.SetCaps, raise-only), and all sites resume. Raising a floor can never
// manufacture a violation, so the zero-violation guarantee survives
// re-negotiation; negotiating one window ahead keeps the scheduler's
// pre-drop throttle edges and control-cap lookahead exact. See
// DESIGN.md §12 for the architecture and the determinism/barrier
// contract.
package fed
