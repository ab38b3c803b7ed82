// Package obs is the host-side self-observability layer: wall-clock
// phase timers around the scheduler's hot paths, kernel and opcache
// gauges, and per-Run allocation/GC deltas. It answers "where does the
// simulator spend real time and memory" — the question the million-job
// regime lives or dies on — and it is strictly separated from
// internal/telemetry, which records *sim-time* decisions.
//
// The separation is a contract, not a convention:
//
//   - telemetry events/metrics are stamped with the virtual clock and
//     are part of the deterministic, golden-pinned output surface;
//   - obs reads the wall clock (every site annotated //lint:wallclock)
//     and must NEVER feed back into a scheduling decision — a run with
//     obs attached is byte-identical to one without.
//
// A nil *Host is the disabled layer: every method is a no-op, and the
// scheduler guards each call site with `if s.hst != nil` (the same
// discipline telguard enforces for the telemetry glue), so the
// disabled path stays allocation-free and branch-predictable.
//
// Host is not goroutine-safe: one Host instruments one scheduler run
// on one goroutine (in a federation, one Host per site). Concurrent
// readers go through StatusServer, which only ever sees snapshots
// marshalled on the owning goroutine.
package obs

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/opcache"
	"repro/internal/sim"
)

// Phase identifies one instrumented scheduler hot path.
type Phase uint8

// The instrumented phases.
const (
	// PhaseAdmission is one admission pass over the blocked/idle queue.
	PhaseAdmission Phase = iota
	// PhaseBackfill is one backfill shadow walk (reservation compute).
	PhaseBackfill
	// PhaseGovernor is one governor retune pass (throttle or boost).
	PhaseGovernor
	// PhaseDrain is the kernel event drain — the whole sim.Kernel.Run.
	PhaseDrain
	numPhases
)

// phaseNames index by Phase.
var phaseNames = [numPhases]string{"admission", "backfill", "governor", "drain"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// PhaseStat is one phase's cumulative wall-clock tally.
type PhaseStat struct {
	// Count is how many times the phase ran.
	Count int64 `json:"count"`
	// Nanos is the cumulative wall-clock time inside the phase.
	Nanos int64 `json:"nanos"`
}

// PoolCache is one pool's opcache counters under its display name.
type PoolCache struct {
	Name string `json:"pool"`
	opcache.Stats
}

// Host accumulates host-side counters for one scheduler run. Obtain
// one with NewHost, hand it to sched.Config.Obs, and read Summary or
// Snapshot after Run returns (or live, from the run's own goroutine).
type Host struct {
	epoch time.Time // wall-clock anchor; Begin/End measure against it

	phases    [numPhases]PhaseStat
	wallStart int64 // nanos since epoch at RunStart
	wallEnd   int64 // nanos since epoch at RunEnd; 0 while running
	started   bool
	m0        runtime.MemStats // baseline at RunStart

	// Live stat sources, wired by the scheduler at Run start. Polled
	// by Snapshot on the owning goroutine only.
	kernel func() sim.Stats
	cache  func() opcache.Stats
	pools  func() []PoolCache
}

// NewHost returns an enabled host observer. A nil *Host is the
// disabled layer.
func NewHost() *Host {
	return &Host{epoch: time.Now()} //lint:wallclock host-side observability anchor
}

// now returns nanos since the epoch from the monotonic clock.
func (h *Host) now() int64 {
	return int64(time.Since(h.epoch)) //lint:wallclock host-side phase timing
}

// Begin starts a phase timer and returns its start token. Free on a
// nil host.
func (h *Host) Begin() int64 {
	if h == nil {
		return 0
	}
	return h.now()
}

// End closes a phase timer opened by Begin.
func (h *Host) End(p Phase, start int64) {
	if h == nil {
		return
	}
	h.phases[p].Count++
	h.phases[p].Nanos += h.now() - start
}

// SetSources wires the live gauge sources Snapshot polls: the sim
// kernel's Stats, the opcache Stats summed over pools, and the
// per-pool breakdown. The scheduler calls this once per Run.
func (h *Host) SetSources(kernel func() sim.Stats, cache func() opcache.Stats, pools func() []PoolCache) {
	if h == nil {
		return
	}
	h.kernel = kernel
	h.cache = cache
	h.pools = pools
}

// RunStart marks the beginning of the observed run: the wall-clock
// and allocation/GC baselines all deltas are reported against.
func (h *Host) RunStart() {
	if h == nil {
		return
	}
	runtime.ReadMemStats(&h.m0)
	h.wallStart = h.now()
	h.wallEnd = 0
	h.started = true
}

// RunEnd marks the end of the observed run; Snapshot and Summary
// report the frozen wall time afterwards.
func (h *Host) RunEnd() {
	if h == nil {
		return
	}
	h.wallEnd = h.now()
}

// KernelSnapshot mirrors sim.Stats with stable JSON names.
type KernelSnapshot struct {
	// Events counts kernel callbacks fired.
	Events int64 `json:"events"`
	// HeapMax is the event-heap depth high-water mark.
	HeapMax int `json:"heap_max"`
	// DrainMax is the longest same-sim-instant callback cascade.
	DrainMax int64 `json:"drain_max"`
}

// PhaseSnapshot is one phase's tally with its name attached.
type PhaseSnapshot struct {
	Phase string `json:"phase"`
	Count int64  `json:"count"`
	// Seconds is cumulative wall time inside the phase.
	Seconds float64 `json:"wall_s"`
}

// Snapshot is a point-in-time view of the host counters — what the
// status endpoint serves and the one-line summary renders.
type Snapshot struct {
	// WallSeconds is elapsed wall time: running total mid-run, frozen
	// at RunEnd afterwards.
	WallSeconds float64 `json:"wall_s"`
	// EventsPerSec is kernel events over wall seconds.
	EventsPerSec float64 `json:"events_per_s"`

	Kernel KernelSnapshot  `json:"kernel"`
	Phases []PhaseSnapshot `json:"phases"`

	// Opcache aggregates hit/miss/forget over every pool; HitRate is
	// hits/(hits+misses). Pools is the per-pool breakdown.
	Opcache opcache.Stats `json:"opcache"`
	HitRate float64       `json:"opcache_hit_rate"`
	Pools   []PoolCache   `json:"pools,omitempty"`

	// Allocation and GC deltas since RunStart.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	NumGC      uint32 `json:"num_gc"`
	// HeapBytes is the live heap at snapshot time (not a delta).
	HeapBytes uint64 `json:"heap_bytes"`
}

// Snapshot materialises the current counters. Call it on the owning
// goroutine (mid-run from a sink, or any time after Run returns).
func (h *Host) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	var snap Snapshot
	end := h.wallEnd
	if end == 0 {
		end = h.now()
	}
	if h.started {
		snap.WallSeconds = float64(end-h.wallStart) / 1e9
	}
	if h.kernel != nil {
		ks := h.kernel()
		snap.Kernel = KernelSnapshot{Events: ks.Events, HeapMax: ks.MaxHeap, DrainMax: ks.MaxDrain}
		if snap.WallSeconds > 0 {
			snap.EventsPerSec = float64(ks.Events) / snap.WallSeconds
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		st := h.phases[p]
		snap.Phases = append(snap.Phases, PhaseSnapshot{
			Phase:   p.String(),
			Count:   st.Count,
			Seconds: float64(st.Nanos) / 1e9,
		})
	}
	if h.cache != nil {
		snap.Opcache = h.cache()
		snap.HitRate = snap.Opcache.HitRate()
	}
	if h.pools != nil {
		snap.Pools = h.pools()
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if h.started {
		snap.AllocBytes = m1.TotalAlloc - h.m0.TotalAlloc
		snap.Mallocs = m1.Mallocs - h.m0.Mallocs
		snap.NumGC = m1.NumGC - h.m0.NumGC
	}
	snap.HeapBytes = m1.HeapAlloc
	return snap
}

// Summary renders the one-line host report schedrun -v prints:
//
//	wall=0.42s events/s=812k opcache=93.2% hit (12034h/871m/240f) alloc=84.1MB gc=3 | admission 12.1ms/210 …
func (h *Host) Summary() string {
	if h == nil {
		return ""
	}
	s := h.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%.3fs events/s=%s opcache=%.1f%% hit (%dh/%dm/%df) alloc=%s gc=%d",
		s.WallSeconds, humanCount(s.EventsPerSec), 100*s.HitRate,
		s.Opcache.Hits, s.Opcache.Misses, s.Opcache.Forgets,
		humanBytes(s.AllocBytes), s.NumGC)
	sep := " | "
	for _, p := range s.Phases {
		if p.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s%s %.1fms/%d", sep, p.Phase, 1e3*p.Seconds, p.Count)
		sep = " "
	}
	return b.String()
}

// humanCount renders a rate with k/M suffixes (one decimal).
func humanCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// humanBytes renders a byte count with KiB/MiB/GiB suffixes.
func humanBytes(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}
