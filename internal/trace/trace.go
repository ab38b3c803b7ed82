// Package trace provides TAU-style phase (region) timers for the
// simulated runtime: benchmarks mark regions (computation, reduction,
// all-to-all …) through the mpi package so time can be attributed per
// phase. The communication totals M and B the paper also takes from
// TAU/PMPI are counted once, by package perfctr.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// Tracer aggregates phase times; only totals are kept, never a per-event
// log. Create one with New.
type Tracer struct {
	phaseTime map[string]units.Seconds
	phaseHits map[string]int64
	open      map[phaseKey][]units.Seconds // per (rank, phase) stack of enter times
}

// phaseKey names one rank's open region.
type phaseKey struct {
	rank int
	name string
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{
		phaseTime: make(map[string]units.Seconds),
		phaseHits: make(map[string]int64),
		open:      make(map[phaseKey][]units.Seconds),
	}
}

// PhaseEnter marks a rank entering a named region at time now.
func (t *Tracer) PhaseEnter(now units.Seconds, rank int, name string) {
	key := phaseKey{rank, name}
	t.open[key] = append(t.open[key], now)
}

// PhaseExit marks a rank leaving a named region; the enclosing PhaseEnter
// must exist. Time spent is accumulated under the phase name across ranks.
func (t *Tracer) PhaseExit(now units.Seconds, rank int, name string) {
	key := phaseKey{rank, name}
	stack := t.open[key]
	if len(stack) == 0 {
		panic(fmt.Sprintf("trace: rank %d exits phase %q it never entered", rank, name))
	}
	enter := stack[len(stack)-1]
	t.open[key] = stack[:len(stack)-1]
	t.phaseTime[name] += now - enter
	t.phaseHits[name]++
}

// Phases returns the recorded phase names, sorted.
func (t *Tracer) Phases() []string {
	out := make([]string, 0, len(t.phaseTime))
	for name := range t.phaseTime {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Summary renders the per-phase aggregate table.
func (t *Tracer) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %10s\n", "phase", "time", "count")
	for _, name := range t.Phases() {
		fmt.Fprintf(&b, "%-24s %14v %10d\n", name, t.phaseTime[name], t.phaseHits[name])
	}
	return b.String()
}
