package is

import (
	"math"
	"testing"

	"repro/internal/npb"
)

func TestConfigValidation(t *testing.T) {
	good := Config{LogKeys: 14, LogMaxKey: 11, Buckets: 256, Iters: 2}
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	cases := []func(c *Config){
		func(c *Config) { c.LogKeys = 4 },
		func(c *Config) { c.LogKeys = 31 },
		func(c *Config) { c.LogMaxKey = 2 },
		func(c *Config) { c.LogMaxKey = 30 },
		func(c *Config) { c.Buckets = 100 },
		func(c *Config) { c.Buckets = 1 },
		func(c *Config) { c.Iters = 0 },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestKernelMetadata(t *testing.T) {
	k, err := New(Config{LogKeys: 14, LogMaxKey: 11, Buckets: 256, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k.Name() != "IS" {
		t.Fatalf("name %q", k.Name())
	}
	if k.N() != 1<<14 {
		t.Fatalf("N = %g", k.N())
	}
	if a := k.Alpha(); a <= 0 || a > 1 {
		t.Fatalf("alpha %g", a)
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
	k, err := New(Config{LogKeys: 14, LogMaxKey: 11, Buckets: 256, Iters: 1})
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
		k, err := New(Config{LogKeys: 14, LogMaxKey: 11, Buckets: 256, Iters: 1, Seed: c.seed})
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
