package main

import (
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// span is one timed call from the benchmark into a layer. Spans live in
// memory until the iteration ends and are written out afterwards.
type span struct {
	Name string `json:"name"`
	// Run is shared by every span of one iteration.
	Run string `json:"run"`
	// Parent indexes the enclosing span; -1 marks a root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	// Self is the span's duration minus what its children cover.
	Self int64 `json:"self_ns"`
}

// tracer collects the traced run's spans and per-site layer counters.
// The nil tracer is the untraced run: every method is a no-op, so the
// workloads call it unconditionally.
type tracer struct {
	epoch time.Time
	run   string
	spans []span
	open  []int // stack of open span indices

	sites  []siteTrace
	fedRun float64 // fed.Run wall seconds; zero outside fed_sites
	routes int64
}

// siteTrace is one scheduler's host-side snapshot and event counts.
type siteTrace struct {
	snap   obs.Snapshot
	counts kindCounter
}

func newTracer(run string) *tracer {
	return &tracer{epoch: time.Now(), run: run} //lint:wallclock host-side span anchor
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{
		Name:   name,
		Run:    t.run,
		Parent: parent,
		Start:  int64(time.Since(t.epoch)), //lint:wallclock host-side span start
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch)) //lint:wallclock host-side span end
	t.open = t.open[:len(t.open)-1]
}

// seconds returns a closed span's duration.
func (t *tracer) seconds(i int) float64 {
	return float64(t.spans[i].End-t.spans[i].Start) / 1e9
}

func (t *tracer) addSite(snap obs.Snapshot, counts *kindCounter) {
	t.sites = append(t.sites, siteTrace{snap: snap, counts: *counts})
}

func (t *tracer) addFed(runSeconds float64, routes int64) {
	t.fedRun, t.routes = runSeconds, routes
}

// kindCounter is the benchmark's own telemetry sink: it counts events
// per Kind and does no I/O, so the traced run pays for the emit sites
// and nothing else.
type kindCounter struct {
	n [256]int64 // indexed by telemetry.Kind (a uint8)
}

func (c *kindCounter) Write(ev telemetry.Event) error { c.n[ev.Kind]++; return nil }
func (c *kindCounter) Close() error                   { return nil }

func (c *kindCounter) total() int64 {
	var n int64
	for _, v := range c.n {
		n += v
	}
	return n
}

// selfTime is a phase's own time given the total of the phases nested
// inside it. Children are clipped to the parent: timer granularity can
// make nested totals add up to a hair more than the phase that holds
// them, and a negative self time would be noise reported as a number.
func selfTime(total float64, children ...float64) float64 {
	var covered float64
	for _, c := range children {
		covered += c
	}
	if covered > total {
		covered = total
	}
	return total - covered
}

// setSelfTimes fills every span's Self from its direct children, each
// child clipped to its parent's interval.
func setSelfTimes(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, c := range spans {
		if c.Parent < 0 {
			continue
		}
		p := &spans[c.Parent]
		start, end := max(c.Start, p.Start), min(c.End, p.End)
		if end > start {
			p.Self -= end - start
		}
	}
	for i := range spans {
		if spans[i].Self < 0 { // overlapping children; never report negative time
			spans[i].Self = 0
		}
	}
}

// frontendSeconds is the part of fed.Run no site was draining events
// for: routing, negotiation and the merge. The sites drain in parallel,
// so the slowest one bounds the overlap; imbalance is max over mean
// site drain (1 = perfectly even).
func frontendSeconds(fedRun float64, siteDrain []float64) (frontend, imbalance float64) {
	var slowest, sum float64
	for _, d := range siteDrain {
		slowest = max(slowest, d)
		sum += d
	}
	if sum > 0 {
		imbalance = slowest * float64(len(siteDrain)) / sum
	}
	return selfTime(fedRun, slowest), imbalance
}

// layerMetrics turns the traced iteration's counters into the per-layer
// metrics that come from inside a run (the outside micro-timings are
// layers.go). wall is the timed region's host time. Phase times and
// counts are summed over sites; the obs nesting is drain ⊃ {admission ⊃
// backfill, governor} (sched: Run / admitPass / computeReservation /
// governor.onSample and edgeRetune), so each phase reports self time.
func (t *tracer) layerMetrics(wall float64) map[string]float64 {
	var phase [4]obs.PhaseSnapshot // admission, backfill, governor, drain
	var counts kindCounter
	var drains []float64
	m := map[string]float64{ // present (as zero) on workloads with no scheduler
		"sim.events": 0, "sim.heap_max": 0, "sim.drain_max": 0,
		"opcache.hits": 0, "opcache.misses": 0, "opcache.forgets": 0,
	}
	for _, s := range t.sites {
		for i, p := range s.snap.Phases {
			phase[i].Count += p.Count
			phase[i].Seconds += p.Seconds
			if obs.Phase(i) == obs.PhaseDrain {
				drains = append(drains, p.Seconds)
			}
		}
		for k, v := range s.counts.n {
			counts.n[k] += v
		}
		m["sim.events"] += float64(s.snap.Kernel.Events)
		m["sim.heap_max"] = max(m["sim.heap_max"], float64(s.snap.Kernel.HeapMax))
		m["sim.drain_max"] = max(m["sim.drain_max"], float64(s.snap.Kernel.DrainMax))
		m["opcache.hits"] += float64(s.snap.Opcache.Hits)
		m["opcache.misses"] += float64(s.snap.Opcache.Misses)
		m["opcache.forgets"] += float64(s.snap.Opcache.Forgets)
	}
	admission, backfill, governor, drain := phase[obs.PhaseAdmission], phase[obs.PhaseBackfill], phase[obs.PhaseGovernor], phase[obs.PhaseDrain]
	m["sched.admission_s"] = selfTime(admission.Seconds, backfill.Seconds)
	m["sched.admission_passes"] = float64(admission.Count)
	m["sched.backfill_s"] = backfill.Seconds
	m["sched.backfill_walks"] = float64(backfill.Count)
	m["sched.governor_s"] = governor.Seconds
	m["sched.governor_passes"] = float64(governor.Count)
	m["sched.drain_self_s"] = selfTime(drain.Seconds, admission.Seconds, governor.Seconds)

	n := func(k telemetry.Kind) float64 { return float64(counts.n[k]) }
	m["sched.attempts"] = n(telemetry.EvAttempt)
	m["sched.admits"] = n(telemetry.EvAdmit)
	m["sched.admit_ratio"] = ratio(n(telemetry.EvAdmit), n(telemetry.EvAdmit)+n(telemetry.EvAttempt))
	m["sched.reserves"] = n(telemetry.EvReserve)
	m["sched.throttles"] = n(telemetry.EvThrottle)
	m["sched.boosts"] = n(telemetry.EvBoost)
	m["cluster.retunes"] = n(telemetry.EvRankRetune)
	m["power.samples"] = n(telemetry.EvSample)
	m["capplan.plan_edges"] = n(telemetry.EvPlanEdge)
	m["faults.fails"] = n(telemetry.EvFail)
	m["faults.kills"] = n(telemetry.EvKill)
	m["faults.restarts"] = n(telemetry.EvRestart)
	m["faults.checkpoints"] = n(telemetry.EvCheckpoint)
	m["telemetry.events"] = float64(counts.total())

	m["sim.events_per_host_s"] = ratio(m["sim.events"], wall)
	m["opcache.hit_rate"] = ratio(m["opcache.hits"], m["opcache.hits"]+m["opcache.misses"])

	m["fed.routes"] = float64(t.routes)
	m["fed.frontend_s"], m["fed.site_imbalance"] = 0, 0
	if t.fedRun > 0 {
		m["fed.frontend_s"], m["fed.site_imbalance"] = frontendSeconds(t.fedRun, drains)
	}

	for _, name := range figureMetric {
		m[name] = 0
	}
	m[surfacesMetric] = 0
	for i, sp := range t.spans {
		if id, ok := strings.CutPrefix(sp.Name, figureSpanPrefix); ok {
			name, ok := figureMetric[id]
			if !ok {
				name = surfacesMetric
			}
			m[name] += t.seconds(i)
		}
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// figureSpanPrefix + a figure ID names a Generator.Run span.
const figureSpanPrefix = "figures.Fig"

// figureMetric maps a figure ID to its time metric; the model surfaces
// (Figs 5-9) take under a millisecond each and are reported together.
var figureMetric = map[string]string{
	"2a": "figures.fig2a_s", "2b": "figures.fig2b_s", "3": "figures.fig3_s",
	"4": "figures.fig4_s", "10": "figures.fig10_s",
}

const surfacesMetric = "figures.surfaces_s"
