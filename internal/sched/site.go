package sched

// Site embedding hooks: the small surface internal/fed drives a
// Scheduler through when it runs one per federation site. At registers
// a sim-time callback (the federation's budget-negotiation barriers)
// and Snapshot exposes the operating-mix facts the budget-split
// policies price (predicted draw, mix energy-efficiency, load). Both
// are ordinary exported API — nothing federation-specific leaks into
// the scheduler — but they are documented together here because their
// contracts (pre-Run registration, kernel-context execution) only
// matter to an embedder.

import (
	"fmt"

	"repro/internal/units"
)

// At schedules fn on the simulation kernel at absolute sim time t. It
// must be called after New and before Run; fn then executes in kernel
// context during Run. Callbacks registered here fire before any event
// Run itself arms for the same instant (the kernel fires equal-time
// events in registration order), which is what lets a federation
// barrier at a plan breakpoint revise the cap timeline before the
// scheduler's own breakpoint edge reads it. The kernel drains every
// event, so fn fires even if the trace completes earlier; fn must
// tolerate that (a federation barrier just reports state and waits).
func (s *Scheduler) At(t units.Seconds, fn func()) error {
	if s.ran {
		return fmt.Errorf("sched: At must be called before Run")
	}
	if t < 0 {
		return fmt.Errorf("sched: At time %v must not be negative", t)
	}
	s.cl.Kernel().Schedule(t, fn)
	return nil
}

// Snapshot is a point-in-time view of a running scheduler's operating
// mix — the facts a federated budget-split policy prices when deciding
// where the next window's watts do the most good.
type Snapshot struct {
	// Now is the sim time the snapshot was taken at.
	Now units.Seconds
	// Draw is the model-side sustained cluster draw: parked idle plus
	// every running job's conservative draw at its current frequency.
	Draw units.Watts
	// MixEE is the draw-weighted mean model energy-efficiency of the
	// running jobs at their current operating points — how much useful
	// work the site's current watts buy. Zero when nothing runs.
	MixEE float64
	// Running and Queued count dispatched and waiting jobs.
	Running, Queued int
	// FreeRanks counts unassigned ranks across every pool.
	FreeRanks int
}

// Snapshot captures the current operating mix. It must be called in
// kernel context (from an At callback or a telemetry sink) — the
// scheduler's state is only coherent between events.
func (s *Scheduler) Snapshot() Snapshot {
	snap := Snapshot{
		Now:     s.cl.Kernel().Now(),
		Draw:    s.predictedTotal(),
		Running: len(s.running),
		Queued:  len(s.queue),
	}
	for i := range s.pools {
		snap.FreeRanks += len(s.pools[i].free)
	}
	var wsum, esum float64
	for _, rj := range s.running {
		w := float64(rj.prof.Draw[rj.fIdx])
		wsum += w
		esum += w * rj.prof.Pred[rj.fIdx].EE
	}
	if wsum > 0 {
		snap.MixEE = esum / wsum
	}
	return snap
}
