package figures

import (
	"strings"
	"testing"
)

// quick regenerates every figure with reduced sizes; the full-scale
// versions run under the root bench harness.
func quick() Options { return Options{Quick: true, Seed: 42} }

func TestAllGeneratorsQuick(t *testing.T) {
	for _, g := range All() {
		g := g
		t.Run("fig"+g.ID, func(t *testing.T) {
			fig, err := g.Run(quick())
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != g.ID {
				t.Fatalf("figure id %q from generator %q", fig.ID, g.ID)
			}
			if len(fig.Body) == 0 || len(fig.CSV) == 0 {
				t.Fatal("empty figure body or CSV")
			}
			if !strings.Contains(fig.String(), "Figure "+g.ID) {
				t.Fatal("rendered header missing")
			}
		})
	}
}

// Satellite determinism guard: figures generated with a parallel worker
// pool must be byte-identical to the sequential reference — every sweep
// point owns its cluster and seed, so worker count may only change
// wall-clock time.
func TestParallelFiguresByteIdentical(t *testing.T) {
	for _, g := range All() {
		g := g
		t.Run("fig"+g.ID, func(t *testing.T) {
			seq, err := g.Run(Options{Quick: true, Seed: 42, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := g.Run(Options{Quick: true, Seed: 42, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if par.CSV != seq.CSV {
				t.Fatalf("parallel CSV differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq.CSV, par.CSV)
			}
			if par.Body != seq.Body {
				t.Fatal("parallel figure body differs from sequential")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("5"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("99"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestFig3AccuracyIsReasonable(t *testing.T) {
	fig, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Every row's error must stay below 20% even in quick mode (the
	// paper's full-scale bound is 5%; quick sizes are noisier).
	for _, line := range strings.Split(strings.TrimSpace(fig.CSV), "\n")[1:] {
		parts := strings.Split(line, ",")
		if len(parts) < 4 {
			t.Fatalf("bad CSV row %q", line)
		}
		var relErr float64
		if _, err := fmtSscan(parts[3], &relErr); err != nil {
			t.Fatal(err)
		}
		if relErr > 0.20 {
			t.Fatalf("%s error %.1f%% too high", parts[0], relErr*100)
		}
	}
}

func TestFig7EPStaysNearOne(t *testing.T) {
	fig, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(fig.CSV), "\n")[1:] {
		parts := strings.Split(line, ",")
		var ee float64
		if _, err := fmtSscan(parts[3], &ee); err != nil {
			t.Fatal(err)
		}
		if ee < 0.97 {
			t.Fatalf("EP EE %g below 0.97 in %q", ee, line)
		}
	}
}
