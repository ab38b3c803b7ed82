package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// WriteProm renders the registry's current values in Prometheus text
// exposition format (the live status endpoint's /metrics view of the
// sim-time registry). labels is a pre-rendered label list without
// braces, e.g. `run="ee-max"`, or empty. Counter rate columns are
// omitted — Prometheus derives rates itself — and histograms render
// as cumulative _bucket/_count/_sum series with le labels.
func (m *Metrics) WriteProm(w io.Writer, labels string) error {
	if m == nil {
		return nil
	}
	var b strings.Builder
	for _, c := range m.counters {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s%s %g\n", c.name, c.name, promLabels(labels, ""), m.value(c))
	}
	for _, g := range m.gauges {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s%s %g\n", g.name, g.name, promLabels(labels, ""), g.v)
	}
	for _, h := range m.hists {
		fmt.Fprintf(&b, "# TYPE %s histogram\n", h.name)
		for i, bd := range h.bounds {
			fmt.Fprintf(&b, "%s_bucket%s %g\n", h.name, promLabels(labels, fmt.Sprintf(`le="%g"`, bd)), h.counts[i])
		}
		fmt.Fprintf(&b, "%s_bucket%s %g\n", h.name, promLabels(labels, `le="+Inf"`), h.inf)
		fmt.Fprintf(&b, "%s_count%s %g\n", h.name, promLabels(labels, ""), h.inf)
		fmt.Fprintf(&b, "%s_sum%s %g\n", h.name, promLabels(labels, ""), h.sum)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promLabels joins base labels with an extra pair into a {...} suffix,
// or returns "" when both are empty.
func promLabels(base, extra string) string {
	switch {
	case base == "" && extra == "":
		return ""
	case base == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + base + "}"
	default:
		return "{" + base + "," + extra + "}"
	}
}
