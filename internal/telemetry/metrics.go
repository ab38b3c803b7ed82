package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/units"
)

// Metrics is a sim-time metrics registry: named counters, gauges and
// histograms registered once at setup, then sampled as rows of one CSV
// time series — the scheduler samples on scheduling edges, so each row
// is a consistent snapshot of the control plane at a decision point.
//
// Rows stream to the writer as they are sampled (bounded memory: the
// registry holds current values only, never the series), which is the
// same discipline the event sinks follow and what lets a million-job
// trace export metrics without holding them.
//
// A recorder's registry also tallies every event the recorder emits,
// before any sink sees it. Counters registered with event kinds and the
// wait histogram read that tally, so what a stream already records is
// counted once, by the same rule the rollup and traceq count it with,
// and is current whenever a sink reads the registry mid-stream.
type Metrics struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	stream   Tally

	w          io.Writer
	row        jbuf
	headerDone bool
	err        error
	lastT      units.Seconds
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter is a monotonically increasing count.
type Counter struct {
	name string
	v    float64
	// of lists the event kinds whose stream count the counter adds
	// to v.
	of []Kind
	// rate adds a <name>_per_s column: the delta since the previous
	// sample over the elapsed sim time (retunes/sec, admissions/sec).
	rate  bool
	prevV float64
}

// Add increments the counter.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is an instantaneous value.
type Gauge struct {
	name string
	v    float64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Histogram counts observations into cumulative ≤-bound buckets
// (Prometheus-style), plus a count and sum. Each bucket contributes one
// CSV column, so the whole distribution rides the same time series.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []float64 // cumulative per bound
	inf    float64   // observations above every bound
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
	h.inf++
}

// registered reports whether a metric name is taken.
func (m *Metrics) registered(name string) bool {
	for _, c := range m.counters {
		if c.name == name {
			return true
		}
	}
	for _, g := range m.gauges {
		if g.name == name {
			return true
		}
	}
	for _, h := range m.hists {
		if h.name == name {
			return true
		}
	}
	return false
}

// checkNew panics on duplicate registration or registration after the
// CSV header froze the column set — both are programming errors in the
// instrumenting code, not runtime conditions.
func (m *Metrics) checkNew(name string) {
	if m.headerDone {
		panic(fmt.Sprintf("telemetry: metric %q registered after the first sample froze the CSV columns", name))
	}
	if m.registered(name) {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
}

// Counter registers a counter column. Given event kinds, the counter
// also counts every event of those kinds the registry's recorder emits.
// A nil registry returns a nil counter whose methods are no-ops (the
// disabled path).
func (m *Metrics) Counter(name string, of ...Kind) *Counter {
	if m == nil {
		return nil
	}
	m.checkNew(name)
	c := &Counter{name: name, of: of}
	m.counters = append(m.counters, c)
	return c
}

// RateCounter registers a counter that additionally reports its
// per-sim-second rate between samples as a <name>_per_s column.
func (m *Metrics) RateCounter(name string, of ...Kind) *Counter {
	c := m.Counter(name, of...)
	if c != nil {
		c.rate = true
	}
	return c
}

// value is c's count: what was added to it plus the stream events of
// its kinds.
func (m *Metrics) value(c *Counter) float64 {
	v := c.v
	for _, k := range c.of {
		v += float64(m.stream.Counts[k])
	}
	return v
}

// Gauge registers a gauge column.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.checkNew(name)
	g := &Gauge{name: name}
	m.gauges = append(m.gauges, g)
	return g
}

// Histogram registers a histogram with the given ascending bucket
// bounds; its columns are <name>_le_<bound>… plus <name>_count and
// <name>_sum.
func (m *Metrics) Histogram(name string, bounds ...float64) *Histogram {
	if m == nil {
		return nil
	}
	m.checkNew(name)
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q bounds must ascend", name))
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]float64, len(bounds)),
	}
	m.hists = append(m.hists, h)
	return h
}

// WaitHistogram registers a histogram, as Histogram does, that
// observes the queue wait of every admission the registry's recorder
// emits. A registry has at most one.
func (m *Metrics) WaitHistogram(name string, bounds ...float64) *Histogram {
	if m == nil {
		return nil
	}
	if m.stream.waits != nil {
		panic(fmt.Sprintf("telemetry: wait histogram %q registered beside %q", name, m.stream.waits.name))
	}
	m.stream.waits = m.Histogram(name, bounds...)
	return m.stream.waits
}

// StreamCSV sets the writer sampled rows stream to. Call it after
// registering every metric and before the first Sample; the header is
// written with the first row.
func (m *Metrics) StreamCSV(w io.Writer) {
	if m == nil {
		return
	}
	m.w = w
}

// header renders the column header: t_s then every metric in
// registration order.
func (m *Metrics) header() string {
	var b strings.Builder
	b.WriteString("t_s")
	for _, c := range m.counters {
		b.WriteString("," + c.name)
		if c.rate {
			b.WriteString("," + c.name + "_per_s")
		}
	}
	for _, g := range m.gauges {
		b.WriteString("," + g.name)
	}
	for _, h := range m.hists {
		for _, bd := range h.bounds {
			fmt.Fprintf(&b, ",%s_le_%g", h.name, bd)
		}
		b.WriteString("," + h.name + "_count," + h.name + "_sum")
	}
	return b.String()
}

// Sample writes one row of the time series at sim time t. Sampling with
// no writer set still advances rate baselines (WriteProm reads the
// registry without a CSV stream). Write errors are sticky and returned
// from Err; sampling continues no-op afterwards.
func (m *Metrics) Sample(t units.Seconds) {
	if m == nil {
		return
	}
	dt := float64(t - m.lastT)
	if m.w != nil && m.err == nil {
		b := m.row.reset()
		if !m.headerDone {
			b.raw(m.header()).raw("\n")
		}
		b.fixed(float64(t), 6)
		for _, c := range m.counters {
			v := m.value(c)
			b.raw(",").g(v)
			if c.rate {
				rate := 0.0
				if dt > 0 {
					rate = (v - c.prevV) / dt
				}
				b.raw(",").g(rate)
			}
		}
		for _, g := range m.gauges {
			b.raw(",").g(g.v)
		}
		for _, h := range m.hists {
			for _, c := range h.counts {
				b.raw(",").g(c)
			}
			b.raw(",").g(h.inf).raw(",").g(h.sum)
		}
		b.raw("\n")
		if _, err := m.w.Write(b.b); err != nil {
			m.err = err
		}
	}
	m.headerDone = true
	for _, c := range m.counters {
		c.prevV = m.value(c)
	}
	m.lastT = t
}

// Err returns the sticky stream error, if any.
func (m *Metrics) Err() error {
	if m == nil {
		return nil
	}
	return m.err
}
