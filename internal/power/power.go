// Package power is the PowerPack analogue for the simulated cluster
// (DESIGN.md §2): it samples per-component power on a fixed virtual-time
// grid while an application runs, synchronises the samples with the
// application's execution window, and integrates energy.
//
// Component power in a window follows the paper's energy decomposition
// (Eq. 8–9): each component draws its idle power, and CPU and memory add
// their active deltas scaled by utilisation (busy time in the window /
// window length); no workload does disk I/O, and the NIC is in "other".
// Windows that span a DVFS retune are priced piecewise from the
// cluster's energy banks — each segment at the operating point it
// actually ran at — so rank turnover between jobs at different
// frequencies cannot masquerade as a power spike (or a phantom cap
// violation). Because the attribution is exact, the profile integrates
// to precisely the cluster's measured energy — the property PowerPack's
// calibration aims for. With overlap α < 1, utilisation can transiently
// exceed 1 (compressed wall time), mirroring how measured component
// power can exceed nominal active power during dense phases.
//
// A sample costs one cluster.StepMeter per tracked rank, which advances
// the rank's reading in place: a rank nothing touched since the last
// sample adds its idle floor, and only busy or retuned ranks take a busy
// snapshot. The profiler keeps no trace — a caller that wants one
// subscribes with OnSample — so a sample allocates nothing and a run's
// memory does not grow with its makespan.
package power

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/units"
)

// Sample is one point of the power trace.
type Sample struct {
	T      units.Seconds // end of the sampling window
	CPU    units.Watts
	Memory units.Watts
	IO     units.Watts // I/O subsystem at idle (no workload does disk I/O)
	Other  units.Watts // motherboard, fans, NIC, PSU share (flat)
	Total  units.Watts
}

// Profile is a power trace, as an OnSample subscriber collects it.
type Profile struct {
	Interval units.Seconds
	Samples  []Sample
}

// Profiler samples a cluster while its kernel runs. Attach it, and
// subscribe with OnSample, before Kernel().Run().
type Profiler struct {
	cl       *cluster.Cluster
	interval units.Seconds
	ranks    []int
	noisy    bool

	// meters is each tracked rank's running meter reading, stepped in
	// place at every sample (see record).
	meters []cluster.Meter
	// params is each tracked rank's machine vector, refreshed when the
	// rank's window spans a retune — the only way a vector changes.
	params []machine.Params
	prevT  units.Seconds

	onSample  []func(Sample)
	keepAlive func() bool
	tickFn    func() // p.tick, bound once so re-arming a sample allocates nothing
}

// OnSample registers fn to run in kernel context immediately after each
// sample is taken — the subscription point for runtime controllers
// (the sched package's DVFS governor closes its control loop here),
// passive observers (the telemetry recorder) and a caller that keeps the
// trace (append each sample to a Profile). Subscribers run in
// registration order, so a controller registered before an observer acts
// before the observer records — registration order is part of the
// control-plane contract, not an accident of last-wins.
func (p *Profiler) OnSample(fn func(Sample)) { p.onSample = append(p.onSample, fn) }

// KeepSampling keeps the sampling loop armed while alive() returns true
// even when no simulated process is currently live. Without it the
// profiler stops at the first idle gap, which is correct for single-run
// profiling but loses samples between job arrivals in scheduler traces.
// alive is polled at every tick; once it returns false (and no process is
// live) the loop stops and the kernel can drain.
func (p *Profiler) KeepSampling(alive func() bool) { p.keepAlive = alive }

// MinInterval is the shortest sampling interval Attach accepts. A run
// schedules makespan/interval samples, so without a floor a tiny
// interval exhausts memory instead of failing.
const MinInterval = units.Microsecond

// Attach registers a profiler sampling every interval, aggregating the
// given ranks (all ranks if none specified). Power is attributed per
// rank — each rank's utilisation scales its own ΔP — so heterogeneous
// machine vectors profile correctly. If noisy is true, each sample is
// perturbed like a physical meter reading; energy integration is exact
// only for noiseless profiles. Every rank must lie in [0, cl.Ranks()) and
// appear once — a repeated rank would be counted twice in every sample.
func Attach(cl *cluster.Cluster, interval units.Seconds, noisy bool, ranks ...int) (*Profiler, error) {
	if !(interval >= MinInterval) {
		return nil, fmt.Errorf("power: sampling interval %v below the %v floor", interval, MinInterval)
	}
	if len(ranks) == 0 {
		ranks = make([]int, cl.Ranks())
		for i := range ranks {
			ranks[i] = i
		}
	}
	seen := make([]bool, cl.Ranks())
	for _, r := range ranks {
		if r < 0 || r >= len(seen) {
			return nil, fmt.Errorf("power: rank %d out of range [0,%d)", r, len(seen))
		}
		if seen[r] {
			return nil, fmt.Errorf("power: rank %d listed twice", r)
		}
		seen[r] = true
	}
	p := &Profiler{cl: cl, interval: interval, ranks: ranks, noisy: noisy}
	p.prevT = cl.Kernel().Now()
	p.meters = make([]cluster.Meter, len(ranks))
	p.params = make([]machine.Params, len(ranks))
	for i, r := range ranks {
		cl.StepMeter(r, &p.meters[i])
		p.params[i] = cl.Params(r)
	}
	p.tickFn = p.tick
	cl.Kernel().After(interval, p.tickFn)
	return p, nil
}

// tick runs in kernel context at every sample time.
func (p *Profiler) tick() {
	p.record()
	// Keep sampling while application processes are alive (the final
	// tick after the last process exits captures the trailing window),
	// or while a KeepSampling subscriber still wants samples.
	if p.cl.Kernel().LiveProcs() > 0 || (p.keepAlive != nil && p.keepAlive()) {
		p.cl.Kernel().After(p.interval, p.tickFn)
	}
}

func (p *Profiler) record() {
	now := p.cl.Kernel().Now()
	dt := now - p.prevT
	if dt <= 0 {
		return
	}
	s := Sample{T: now}
	for i, r := range p.ranks {
		m, mp := &p.meters[i], &p.params[i]
		switch p.cl.StepMeter(r, m) {
		case cluster.MeterQuiet:
			// Nothing touched the rank: the steady formula with zero
			// busy time, bit for bit (x + ΔP·0/dt == x).
			s.CPU += mp.PcIdle
			s.Memory += mp.PmIdle
			s.IO += mp.PioIdle
			s.Other += mp.Pother
		case cluster.MeterSteady:
			// The rank kept one machine vector, so the classic
			// utilisation formula is exact.
			d := &m.Busy
			s.CPU += mp.PcIdle + units.Watts(float64(mp.DeltaPc)*float64(d.Compute)/float64(dt))
			s.Memory += mp.PmIdle + units.Watts(float64(mp.DeltaPm)*float64(d.Memory)/float64(dt))
			s.IO += mp.PioIdle
			s.Other += mp.Pother
		case cluster.MeterRetuned:
			// The window spans ≥1 DVFS retune: pricing the whole window's
			// busy time and idle power at window-end parameters would
			// misread it (a rank handed from a low-frequency job to a
			// high-frequency one mid-window looks hotter than anything
			// that actually ran — phantom cap violations). The cluster's
			// energy banks price each segment at its own vector, so the
			// window's exact component energies over dt give the true
			// average power. Idle is banked as one Psys-idle integral;
			// split it across components in the window-end vector's
			// proportions (the split is cosmetic, the total is exact).
			*mp = p.cl.Params(r)
			idleRate := float64(m.Idle) / float64(dt)
			share := 1.0
			if mp.PsysIdle > 0 {
				share = idleRate / float64(mp.PsysIdle)
			}
			s.CPU += units.Watts(float64(mp.PcIdle)*share + float64(m.CPU)/float64(dt))
			s.Memory += units.Watts(float64(mp.PmIdle)*share + float64(m.Memory)/float64(dt))
			s.IO += units.Watts(float64(mp.PioIdle) * share)
			s.Other += units.Watts(float64(mp.Pother) * share)
		}
	}
	p.prevT = now
	if p.noisy {
		s.CPU = p.meter(s.CPU)
		s.Memory = p.meter(s.Memory)
		s.IO = p.meter(s.IO)
		s.Other = p.meter(s.Other)
	}
	s.Total = s.CPU + s.Memory + s.IO + s.Other
	for _, fn := range p.onSample {
		fn(s)
	}
}

// meter perturbs a reading by ±1.5 % RMS like a physical power meter.
func (p *Profiler) meter(w units.Watts) units.Watts {
	f := 1 + 0.015*p.cl.Kernel().RNG().NormFloat64()
	if f < 0 {
		f = 0
	}
	return units.Watts(float64(w) * f)
}

// Energy integrates the trace: Σ sample-power × window. For noiseless
// profiles this equals the cluster's true energy over the sampled ranks.
func (pr Profile) Energy() units.Joules {
	var e units.Joules
	prev := units.Seconds(0)
	for _, s := range pr.Samples {
		e += units.Energy(s.Total, s.T-prev)
		prev = s.T
	}
	return e
}

// EnergyIn is the share of the sampling window (since, s.T] that falls
// in [t0, t1]: pro rata where the window straddles an endpoint, zero
// where it misses the span. Summed sample by sample it slices a trace
// along external boundaries, as the scheduler's window ledger does.
func (s Sample) EnergyIn(since, t0, t1 units.Seconds) units.Joules {
	return units.Energy(s.Total, max(min(s.T, t1)-max(since, t0), 0))
}

// PeakTotal returns the maximum total power observed.
func (pr Profile) PeakTotal() units.Watts {
	var peak units.Watts
	for _, s := range pr.Samples {
		if s.Total > peak {
			peak = s.Total
		}
	}
	return peak
}

// MeanTotal returns the time-weighted average total power.
func (pr Profile) MeanTotal() units.Watts {
	if len(pr.Samples) == 0 {
		return 0
	}
	last := pr.Samples[len(pr.Samples)-1].T
	return units.Power(pr.Energy(), last)
}

// WriteCSV emits the trace as CSV (seconds, watts per component).
func (pr Profile) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_s,cpu_w,mem_w,io_w,other_w,total_w"); err != nil {
		return err
	}
	for _, s := range pr.Samples {
		if _, err := fmt.Fprintf(w, "%.6f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			float64(s.T), float64(s.CPU), float64(s.Memory), float64(s.IO), float64(s.Other), float64(s.Total)); err != nil {
			return err
		}
	}
	return nil
}

// Render draws an ASCII strip chart of the component series — the
// Figure 10 visual. width is the number of time columns.
func (pr Profile) Render(width int) string {
	if len(pr.Samples) == 0 || width <= 0 {
		return "(empty profile)\n"
	}
	var b strings.Builder
	type series struct {
		name string
		get  func(Sample) units.Watts
	}
	list := []series{
		{"cpu", func(s Sample) units.Watts { return s.CPU }},
		{"mem", func(s Sample) units.Watts { return s.Memory }},
		{"io", func(s Sample) units.Watts { return s.IO }},
		{"other", func(s Sample) units.Watts { return s.Other }},
		{"total", func(s Sample) units.Watts { return s.Total }},
	}
	glyphs := []byte(" .:-=+*#%@")
	for _, sr := range list {
		var maxW units.Watts
		for _, s := range pr.Samples {
			if v := sr.get(s); v > maxW {
				maxW = v
			}
		}
		fmt.Fprintf(&b, "%6s |", sr.name)
		for col := 0; col < width; col++ {
			idx := col * len(pr.Samples) / width
			v := sr.get(pr.Samples[idx])
			g := 0
			if maxW > 0 {
				g = int(float64(v) / float64(maxW) * float64(len(glyphs)-1))
			}
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			b.WriteByte(glyphs[g])
		}
		fmt.Fprintf(&b, "| max=%v\n", maxW)
	}
	last := pr.Samples[len(pr.Samples)-1].T
	fmt.Fprintf(&b, "%6s  0%*s\n", "t", width, last.String())
	return b.String()
}
