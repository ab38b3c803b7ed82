package trace

import (
	"strings"
	"testing"
)

func TestPhaseAccumulation(t *testing.T) {
	tr := New()
	tr.PhaseEnter(0, 0, "compute")
	tr.PhaseExit(10, 0, "compute")
	tr.PhaseEnter(5, 1, "compute")
	tr.PhaseExit(9, 1, "compute")
	if got := tr.phaseTime["compute"]; got != 14 {
		t.Fatalf("phase time = %v, want 14", got)
	}
	if phases := tr.Phases(); len(phases) != 1 || phases[0] != "compute" {
		t.Fatalf("phases = %v", phases)
	}
}

func TestNestedPhases(t *testing.T) {
	tr := New()
	tr.PhaseEnter(0, 0, "outer")
	tr.PhaseEnter(2, 0, "outer") // recursive re-entry of the same phase
	tr.PhaseExit(3, 0, "outer")
	tr.PhaseExit(10, 0, "outer")
	if got := tr.phaseTime["outer"]; got != 11 { // (3−2) + (10−0)
		t.Fatalf("nested phase time = %v, want 11", got)
	}
}

func TestPhaseExitWithoutEnterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("exit without enter must panic")
		}
	}()
	New().PhaseExit(1, 0, "ghost")
}

func TestSummaryRendering(t *testing.T) {
	tr := New()
	tr.PhaseEnter(0, 0, "alltoall")
	tr.PhaseExit(4, 0, "alltoall")
	out := tr.Summary()
	for _, want := range []string{"phase", "alltoall", "4s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestPhaseEnterExitAllocateNothing: open regions are keyed by a
// (rank, name) struct, so re-entering a known region allocates nothing.
func TestPhaseEnterExitAllocateNothing(t *testing.T) {
	tr := New()
	cycle := func() {
		tr.PhaseEnter(0, 3, "ft.inverse")
		tr.PhaseExit(1, 3, "ft.inverse")
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("an enter/exit pair allocates %v times, want 0", allocs)
	}
}
