package ep

import (
	"math"
	"testing"

	"repro/internal/npb"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{LogPairs: 2}); err == nil {
		t.Error("tiny LogPairs must be rejected")
	}
	if _, err := New(Config{LogPairs: 40}); err == nil {
		t.Error("huge LogPairs must be rejected")
	}
	k, err := New(Config{LogPairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if k.N() != 1024 {
		t.Fatalf("N = %g, want 1024", k.N())
	}
	if k.Name() != "EP" {
		t.Fatalf("name %q", k.Name())
	}
	if a := k.Alpha(); a <= 0 || a > 1 {
		t.Fatalf("alpha %g out of range", a)
	}
}

func TestClassesAreValid(t *testing.T) {
	for name, cfg := range Classes() {
		if _, err := New(cfg); err != nil {
			t.Errorf("class %s: %v", name, err)
		}
	}
	// Published NPB sizes: S = 2^24, B = 2^30.
	if Classes()["S"].LogPairs != 24 || Classes()["B"].LogPairs != 30 {
		t.Error("NPB class table mismatch")
	}
}

func TestVerifyRejectsEmptyRun(t *testing.T) {
	k, err := New(Config{LogPairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(); err == nil {
		t.Error("verification must fail before a run")
	}
}

// TestSeedDomain: New takes 0 as the default seed and any integer in
// [1, 2^46), the generator's domain, and rejects every other seed.
func TestSeedDomain(t *testing.T) {
	for _, c := range []struct {
		seed, want float64 // want 0: rejected
	}{
		{0, npb.DefaultSeed}, {1, 1}, {314159265, 314159265}, {1<<46 - 1, 1<<46 - 1},
		{0.5, 0}, {-1, 0}, {-271828183, 0}, {1 << 46, 0}, {math.NaN(), 0}, {math.Inf(1), 0},
	} {
		k, err := New(Config{LogPairs: 10, Seed: c.seed})
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("seed %g accepted", c.seed)
		case c.want != 0 && err != nil:
			t.Errorf("seed %g: %v", c.seed, err)
		case c.want != 0 && k.cfg.Seed != c.want:
			t.Errorf("seed %g runs from %g, want %g", c.seed, k.cfg.Seed, c.want)
		}
	}
}
