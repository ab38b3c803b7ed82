package figures

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// quick regenerates every figure with reduced sizes; the paper-scale
// versions are cmd/figures' and the paper_figures benchmark workload's.
func quick() Options { return Options{Quick: true, Seed: 42} }

// column returns the named column of a figure CSV as floats, one per row.
func column(t *testing.T, csv, name string) []float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	col := -1
	for i, h := range strings.Split(lines[0], ",") {
		if h == name {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("column %q not in %q", name, lines[0])
	}
	var out []float64
	for _, line := range lines[1:] {
		parts := strings.Split(line, ",")
		if len(parts) <= col {
			t.Fatalf("CSV row %q has no column %q", line, name)
		}
		v, err := strconv.ParseFloat(parts[col], 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

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
	for i, relErr := range column(t, fig.CSV, "rel_error") {
		if relErr > 0.20 {
			t.Fatalf("row %d: error %.1f%% too high", i, relErr*100)
		}
	}
}

func TestFig7EPStaysNearOne(t *testing.T) {
	fig, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, ee := range column(t, fig.CSV, "ee") {
		if ee < 0.97 {
			t.Fatalf("row %d: EP EE %g below 0.97", i, ee)
		}
	}
}

// Figure 2a's energy_eff is E1/Ep measured on noisy simulated runs: it
// must be a plausible efficiency, never NaN.
func TestFig2aMeasuredEEPlausible(t *testing.T) {
	fig, err := Fig2a(Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, ee := range column(t, fig.CSV, "energy_eff") {
		if ee <= 0 || ee > 1.2 || math.IsNaN(ee) {
			t.Fatalf("row %d: implausible measured EE %g", i, ee)
		}
	}
}
