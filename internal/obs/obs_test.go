package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/opcache"
	"repro/internal/sim"
)

// The nil *Host is the disabled layer: every method is a safe no-op
// and the guarded call pattern the scheduler uses allocates nothing.
func TestNilHostIsFreeAndSafe(t *testing.T) {
	var h *Host
	h.End(PhaseAdmission, h.Begin())
	h.SetSources(nil, nil, nil, nil)
	h.RunStart()
	h.RunEnd()
	if s := h.Summary(); s != "" {
		t.Fatalf("nil host Summary = %q, want empty", s)
	}
	if snap := h.Snapshot(); snap.WallSeconds != 0 || snap.Kernel.Events != 0 {
		t.Fatalf("nil host Snapshot = %+v, want zero", snap)
	}

	// The exact pattern at every scheduler call site.
	allocs := testing.AllocsPerRun(100, func() {
		var t0 int64
		if h != nil {
			t0 = h.Begin()
		}
		if h != nil {
			h.End(PhaseDrain, t0)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %g per guarded phase pair, want 0", allocs)
	}
}

// Phase timers accumulate counts and non-negative wall time; an
// enabled Host's guarded Begin/End pair is also allocation-free.
func TestPhaseTimers(t *testing.T) {
	h := NewHost()
	for i := 0; i < 3; i++ {
		h.End(PhaseAdmission, h.Begin())
	}
	h.End(PhaseBackfill, h.Begin())
	snap := h.Snapshot()
	byName := map[string]PhaseSnapshot{}
	for _, p := range snap.Phases {
		byName[p.Phase] = p
	}
	if byName["admission"].Count != 3 {
		t.Fatalf("admission count = %d, want 3", byName["admission"].Count)
	}
	if byName["backfill"].Count != 1 {
		t.Fatalf("backfill count = %d, want 1", byName["backfill"].Count)
	}
	if byName["governor"].Count != 0 || byName["drain"].Count != 0 {
		t.Fatalf("untouched phases must stay zero: %+v", snap.Phases)
	}
	if byName["admission"].Seconds < 0 {
		t.Fatalf("negative phase time %g", byName["admission"].Seconds)
	}

	allocs := testing.AllocsPerRun(100, func() {
		h.End(PhaseGovernor, h.Begin())
	})
	if allocs != 0 {
		t.Fatalf("enabled phase pair allocates %g, want 0", allocs)
	}
}

// Snapshot polls the wired gauge sources and reports run deltas.
func TestSnapshotSources(t *testing.T) {
	h := NewHost()
	h.SetSources(
		func() sim.Stats { return sim.Stats{Events: 42, MaxHeap: 7, MaxDrain: 3} },
		func() opcache.Stats { return opcache.Stats{Hits: 9, Misses: 1, Forgets: 2} },
		func() []PoolCache {
			return []PoolCache{{Name: "SystemG", Stats: opcache.Stats{Hits: 9, Misses: 1, Forgets: 2}}}
		},
		func() AdmissionWork {
			return AdmissionWork{Best: 10, FloorFit: 6, FloorReserved: 3, Searches: 1, Rows: 4}
		},
	)
	h.RunStart()
	sink := make([]byte, 1<<16) // force some allocation inside the run
	_ = sink
	h.RunEnd()

	snap := h.Snapshot()
	if snap.Kernel.Events != 42 || snap.Kernel.HeapMax != 7 || snap.Kernel.DrainMax != 3 {
		t.Fatalf("kernel snapshot = %+v", snap.Kernel)
	}
	if snap.Opcache.Hits != 9 {
		t.Fatalf("opcache snapshot = %+v", snap.Opcache)
	}
	if len(snap.Pools) != 1 || snap.Pools[0].Name != "SystemG" {
		t.Fatalf("pools snapshot = %+v", snap.Pools)
	}
	if snap.Admission != (AdmissionWork{Best: 10, FloorFit: 6, FloorReserved: 3, Searches: 1, Rows: 4}) {
		t.Fatalf("admission snapshot = %+v", snap.Admission)
	}
	if snap.WallSeconds < 0 {
		t.Fatalf("wall seconds %g negative", snap.WallSeconds)
	}
	if snap.AllocBytes == 0 {
		t.Fatal("allocation delta should register the in-run allocation")
	}
	if snap.EventsPerSec <= 0 {
		t.Fatalf("events/s = %g, want positive", snap.EventsPerSec)
	}

	// The snapshot marshals: the status endpoint serves exactly this.
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"wall_s"`, `"events_per_s"`, `"kernel"`, `"heap_max"`, `"opcache"`, `"alloc_bytes"`,
		`"admission"`, `"best"`, `"floor_fit"`, `"floor_reserved"`, `"searches"`, `"rows"`} {
		if !strings.Contains(string(buf), key) {
			t.Fatalf("snapshot JSON misses %s: %s", key, buf)
		}
	}
}

// Summary renders the one-line host report with every headline field
// and skips zero-count phases.
func TestSummaryFormat(t *testing.T) {
	h := NewHost()
	h.SetSources(
		func() sim.Stats { return sim.Stats{Events: 1000} },
		func() opcache.Stats { return opcache.Stats{Hits: 3, Misses: 1} },
		nil,
		func() AdmissionWork {
			return AdmissionWork{Best: 10, FloorFit: 6, FloorReserved: 3, Searches: 1, Rows: 4}
		},
	)
	h.RunStart()
	h.End(PhaseAdmission, h.Begin())
	h.RunEnd()
	s := h.Summary()
	for _, want := range []string{"wall=", "events/s=", "opcache=1 evals", "alloc=", "gc=", "admission ",
		" | best=10 floor=6+3 searches=1 rows=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Summary %q misses %q", s, want)
		}
	}
	for _, skip := range []string{"backfill", "governor", "drain"} {
		if strings.Contains(s, skip) {
			t.Fatalf("Summary %q must skip zero-count phase %s", s, skip)
		}
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseAdmission.String() != "admission" || PhaseDrain.String() != "drain" {
		t.Fatal("phase names diverged")
	}
	if got := Phase(200).String(); got != "phase(200)" {
		t.Fatalf("out-of-range phase = %q", got)
	}
}
