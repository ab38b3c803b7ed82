package mg

import (
	"math"
	"testing"

	"repro/internal/npb"
)

func TestMaxDepth(t *testing.T) {
	cases := []struct {
		size, p, want int
	}{
		// Every level needs ≥ 2 planes per rank and ≥ 8 edge length.
		{32, 1, 3}, // 32 → 16 → 8 usable before 8/2 < 2·1? 8/2=4 ≥ 2 ⇒ depth counts 32,16,8
		{32, 4, 2},
		{32, 8, 1},
		{16, 8, 1},
		{64, 1, 4},
	}
	for _, c := range cases {
		if got := MaxDepth(c.size, c.p); got != c.want {
			t.Errorf("MaxDepth(%d, %d) = %d, want %d", c.size, c.p, got, c.want)
		}
	}
	if MaxDepth(8, 64) < 1 {
		t.Error("MaxDepth must be at least 1")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Size: 12, Cycles: 1}); err == nil {
		t.Error("non power-of-two size must be rejected")
	}
	if _, err := New(Config{Size: 4, Cycles: 1}); err == nil {
		t.Error("size < 8 must be rejected")
	}
	if _, err := New(Config{Size: 16, Cycles: 0}); err == nil {
		t.Error("zero cycles must be rejected")
	}
	k, err := New(Config{Size: 16, Cycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k.Name() != "MG" || k.N() != 4096 {
		t.Fatalf("metadata: %s %g", k.Name(), k.N())
	}
}

func TestLevelIndexing(t *testing.T) {
	lv := &level{s: 4, planes: 2}
	lv.u = make([]float64, (lv.planes+2)*4*4)
	// Ghost plane z=-1 starts at offset 0.
	if lv.idx(-1, 0, 0) != 0 {
		t.Fatalf("ghost idx = %d", lv.idx(-1, 0, 0))
	}
	// Interior plane 0 starts one plane in.
	if lv.idx(0, 0, 0) != 16 {
		t.Fatalf("plane0 idx = %d", lv.idx(0, 0, 0))
	}
	// Upper ghost z=planes is the last plane.
	if lv.idx(lv.planes, 3, 3) != len(lv.u)-1 {
		t.Fatalf("upper ghost end = %d, want %d", lv.idx(lv.planes, 3, 3), len(lv.u)-1)
	}
}

func TestClassesAreValid(t *testing.T) {
	for name, cfg := range Classes() {
		if _, err := New(cfg); err != nil {
			t.Errorf("class %s: %v", name, err)
		}
	}
}

func TestVerifyRejectsEmptyRun(t *testing.T) {
	k, err := New(Config{Size: 16, Cycles: 2})
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
		k, err := New(Config{Size: 16, Cycles: 1, Seed: c.seed})
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
