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
	if got := tr.PhaseTime("compute"); got != 14 {
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
	if got := tr.PhaseTime("outer"); got != 11 { // (3−2) + (10−0)
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

func TestMessageAccounting(t *testing.T) {
	tr := New()
	tr.Send(100)
	tr.Send(200)
	if tr.Messages() != 2 || tr.Bytes() != 300 {
		t.Fatalf("M=%d B=%g", tr.Messages(), tr.Bytes())
	}
}

func TestDisabledTracerDropsEverything(t *testing.T) {
	var tr *Tracer // nil tracer must be safe
	tr.Send(100)
	if tr.Messages() != 0 || tr.Bytes() != 0 {
		t.Fatal("nil tracer should count nothing")
	}
	zero := &Tracer{} // zero value is disabled
	zero.Send(100)
	if zero.Messages() != 0 {
		t.Fatal("disabled tracer should count nothing")
	}
}

func TestSummaryRendering(t *testing.T) {
	tr := New()
	tr.PhaseEnter(0, 0, "alltoall")
	tr.PhaseExit(4, 0, "alltoall")
	tr.Send(128)
	out := tr.Summary()
	for _, want := range []string{"alltoall", "M=1", "B=128"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
