package sched

// Site embedding hooks: the small surface internal/fed drives a
// Scheduler through when it runs one per federation site. At registers
// a sim-time callback (the federation's budget-negotiation barriers)
// and MixEE reports the running mix's energy-efficiency, the one fact
// the greedy-ee budget split prices. Both are ordinary exported API —
// nothing federation-specific leaks into the scheduler — but they are
// documented together here because their contracts (pre-Run
// registration, kernel-context execution) only matter to an embedder.

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

// MixEE is the draw-weighted mean model energy-efficiency of the
// running jobs at their current operating points — how much useful work
// the site's current watts buy, the one fact a federated budget split
// prices. Zero when nothing runs. It must be called in kernel context
// (from an At callback or a telemetry sink) — the scheduler's state is
// only coherent between events.
func (s *Scheduler) MixEE() float64 {
	var wsum, esum float64
	for _, rj := range s.running {
		w := float64(rj.prof.Draw[rj.fIdx])
		wsum += w
		esum += w * rj.prof.Pred[rj.fIdx].EE
	}
	if wsum <= 0 {
		return 0
	}
	return esum / wsum
}
