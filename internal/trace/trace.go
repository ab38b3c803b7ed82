// Package trace provides TAU-style application tracing for the simulated
// runtime: phase (region) timers and communication totals.
//
// The paper obtains the communication parameters M (total messages) and B
// (total bytes) with TAU/PMPI; here the mpi package records every send
// into a Tracer, and the phase API lets benchmarks mark regions
// (computation, reduction, all-to-all …) so the power profiler and the
// model-fitting code can attribute time per phase.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// Tracer collects events and aggregates phase times. The zero value is a
// disabled tracer that drops everything; use New for a recording one.
type Tracer struct {
	enabled   bool
	phaseTime map[string]units.Seconds
	phaseHits map[string]int64
	open      map[string][]units.Seconds // per phase stack of enter times (keyed by rank+name)
	msgs      int64
	bytes     float64
}

// New returns a recording tracer. Only aggregates (phase times, M, B)
// are kept, never a per-event log.
func New() *Tracer {
	return &Tracer{
		enabled:   true,
		phaseTime: make(map[string]units.Seconds),
		phaseHits: make(map[string]int64),
		open:      make(map[string][]units.Seconds),
	}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

func phaseKey(rank int, name string) string { return fmt.Sprintf("%d\x00%s", rank, name) }

// PhaseEnter marks a rank entering a named region at time now.
func (t *Tracer) PhaseEnter(now units.Seconds, rank int, name string) {
	if !t.Enabled() {
		return
	}
	key := phaseKey(rank, name)
	t.open[key] = append(t.open[key], now)
}

// PhaseExit marks a rank leaving a named region; the enclosing PhaseEnter
// must exist. Time spent is accumulated under the phase name across ranks.
func (t *Tracer) PhaseExit(now units.Seconds, rank int, name string) {
	if !t.Enabled() {
		return
	}
	key := phaseKey(rank, name)
	stack := t.open[key]
	if len(stack) == 0 {
		panic(fmt.Sprintf("trace: rank %d exits phase %q it never entered", rank, name))
	}
	enter := stack[len(stack)-1]
	t.open[key] = stack[:len(stack)-1]
	t.phaseTime[name] += now - enter
	t.phaseHits[name]++
}

// Send records a point-to-point payload leaving a rank.
func (t *Tracer) Send(bytes units.Bytes) {
	if !t.Enabled() {
		return
	}
	t.msgs++
	t.bytes += float64(bytes)
}

// Messages returns M, the total messages recorded.
func (t *Tracer) Messages() int64 {
	if t == nil {
		return 0
	}
	return t.msgs
}

// Bytes returns B, the total payload bytes recorded.
func (t *Tracer) Bytes() float64 {
	if t == nil {
		return 0
	}
	return t.bytes
}

// PhaseTime returns the accumulated time (summed over ranks) for a phase.
func (t *Tracer) PhaseTime(name string) units.Seconds {
	if t == nil {
		return 0
	}
	return t.phaseTime[name]
}

// Phases returns the recorded phase names, sorted.
func (t *Tracer) Phases() []string {
	if t == nil {
		return nil
	}
	out := make([]string, 0, len(t.phaseTime))
	for name := range t.phaseTime {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Summary renders the per-phase aggregate table.
func (t *Tracer) Summary() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %10s\n", "phase", "time", "count")
	for _, name := range t.Phases() {
		fmt.Fprintf(&b, "%-24s %14v %10d\n", name, t.phaseTime[name], t.phaseHits[name])
	}
	fmt.Fprintf(&b, "messages M=%d bytes B=%.4g\n", t.msgs, t.bytes)
	return b.String()
}
