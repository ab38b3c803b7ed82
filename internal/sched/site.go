package sched

// Site embedding: internal/fed runs one Scheduler per federation site
// through the same Arm → Advance → Result path Run takes, pausing every
// site at each global budget breakpoint. MixEE reports the running
// mix's energy-efficiency, the one fact the greedy-ee budget split
// prices, and is read while the site is paused. It is ordinary exported
// API — nothing federation-specific leaks into the scheduler.

// MixEE is the draw-weighted mean model energy-efficiency of the
// running jobs at their current operating points — how much useful work
// the site's current watts buy, the one fact a federated budget split
// prices. Zero when nothing runs. Call it between Advance calls (or in
// kernel context, from a telemetry sink): the scheduler's state is only
// coherent between events.
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
