package npb

import (
	"testing"
	"testing/quick"
)

func TestRandlcRange(t *testing.T) {
	x := DefaultSeed
	for i := 0; i < 10000; i++ {
		v := Randlc(&x, LCGMultiplier)
		if v <= 0 || v >= 1 {
			t.Fatalf("deviate %d out of (0,1): %g", i, v)
		}
	}
}

func TestRandlcDeterminism(t *testing.T) {
	x1, x2 := DefaultSeed, DefaultSeed
	for i := 0; i < 1000; i++ {
		if Randlc(&x1, LCGMultiplier) != Randlc(&x2, LCGMultiplier) {
			t.Fatalf("divergence at step %d", i)
		}
	}
}

func TestSeedAtMatchesSequentialSteps(t *testing.T) {
	for _, k := range []int64{0, 1, 2, 17, 1000, 65536} {
		x := DefaultSeed
		for i := int64(0); i < k; i++ {
			Randlc(&x, LCGMultiplier)
		}
		jumped := SeedAt(DefaultSeed, LCGMultiplier, k)
		if x != jumped {
			t.Fatalf("SeedAt(%d) = %.0f, sequential gives %.0f", k, jumped, x)
		}
	}
}

// TestVranlcMatchesRandlc: every length, odd and even, from seeds
// across the generator's range gives Randlc's deviates and final state
// bit for bit.
func TestVranlcMatchesRandlc(t *testing.T) {
	for _, seed := range []float64{DefaultSeed, 1, 314159265, SeedAt(DefaultSeed, LCGMultiplier, 1<<40)} {
		for n := 0; n <= 41; n++ {
			want := make([]float64, n)
			x := seed
			for i := range want {
				want[i] = Randlc(&x, LCGMultiplier)
			}
			got := make([]float64, n)
			v := seed
			Vranlc(&v, LCGMultiplier, got)
			if v != x {
				t.Fatalf("seed %.0f n=%d: state %.0f, want %.0f", seed, n, v, x)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %.0f n=%d: deviate %d = %v, want %v", seed, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestLCGPowIdentity(t *testing.T) {
	if got := LCGPow(LCGMultiplier, 0); got != 1 {
		t.Fatalf("a^0 = %g, want 1", got)
	}
	if got := LCGPow(LCGMultiplier, 1); got != LCGMultiplier {
		t.Fatalf("a^1 = %g, want a", got)
	}
}

// Property: jumping is additive — SeedAt(seed, j+k) equals jumping j then k.
func TestSeedJumpAdditiveProperty(t *testing.T) {
	f := func(rawJ, rawK uint16) bool {
		j, k := int64(rawJ), int64(rawK)
		direct := SeedAt(DefaultSeed, LCGMultiplier, j+k)
		mid := SeedAt(DefaultSeed, LCGMultiplier, j)
		chained := SeedAt(mid, LCGMultiplier, k)
		return direct == chained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformityRough(t *testing.T) {
	// Mean of many deviates ≈ 0.5; variance ≈ 1/12.
	x := DefaultSeed
	n := 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := Randlc(&x, LCGMultiplier)
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %g far from 0.5", mean)
	}
	if variance < 0.08 || variance > 0.09 {
		t.Fatalf("variance %g far from 1/12", variance)
	}
}
