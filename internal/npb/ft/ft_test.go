package ft

import (
	"math"
	"testing"

	"repro/internal/npb"
)

// TestSeedDomain: New takes 0 as the default seed and any integer in
// [1, 2^46), the generator's domain, and rejects every other seed.
func TestSeedDomain(t *testing.T) {
	for _, c := range []struct {
		seed, want float64 // want 0: rejected
	}{
		{0, npb.DefaultSeed}, {1, 1}, {314159265, 314159265}, {1<<46 - 1, 1<<46 - 1},
		{0.5, 0}, {-1, 0}, {-271828183, 0}, {1 << 46, 0}, {math.NaN(), 0}, {math.Inf(1), 0},
	} {
		k, err := New(Config{NX: 16, NY: 16, NZ: 16, Iters: 1, Seed: c.seed})
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
