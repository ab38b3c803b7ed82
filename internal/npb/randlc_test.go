package npb

import (
	"fmt"
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

// splitMulMod46 is the generator's classic double-precision body, kept
// as an oracle: x·a mod 2^46 from four 23-bit partial products, exact
// in float64 for x and a in [0, 2^46).
func splitMulMod46(x, a float64) float64 {
	const r23 = 1.0 / (1 << 23)
	const t23 = 1 << 23
	const t46 = t23 * t23
	// Break a and x into 23-bit halves: a = 2^23·a1 + a2, x = 2^23·x1+x2.
	a1 := float64(int64(r23 * a))
	a2 := a - t23*a1
	x1 := float64(int64(r23 * x))
	x2 := x - t23*x1
	// z = a1·x2 + a2·x1 (mod 2^23), then lower 46 bits of a·x.
	t1 := a1*x2 + a2*x1
	t2 := float64(int64(r23 * t1))
	z := t1 - t23*t2
	t3 := t23*z + a2*x2
	t4 := float64(int64(r46 * t3))
	return t3 - t46*t4
}

// splitRandlc is Randlc on the oracle.
func splitRandlc(x *float64, a float64) float64 {
	*x = splitMulMod46(*x, a)
	return r46 * *x
}

// checkSplit steps Randlc and the oracle once from x with multiplier a
// and reports any difference in deviate or state.
func checkSplit(t *testing.T, x, a float64) bool {
	t.Helper()
	got, want := x, x
	gv, wv := Randlc(&got, a), splitRandlc(&want, a)
	if got != want || gv != wv {
		t.Errorf("x=%.0f a=%.0f: Randlc gives state %.0f deviate %v, split multiply %.0f %v", x, a, got, gv, want, wv)
		return false
	}
	return true
}

// TestGeneratorMatchesSplitMultiply pins the integer generator to the
// classic float split-multiply: single steps over random 46-bit
// states and multipliers, the domain's boundary states, jumps, and
// Vranlc at every length up to 41.
func TestGeneratorMatchesSplitMultiply(t *testing.T) {
	aSq := splitMulMod46(LCGMultiplier, LCGMultiplier)
	for _, a := range []float64{LCGMultiplier, aSq} {
		for _, x := range []float64{1, mask46} {
			checkSplit(t, x, a)
		}
		f := func(raw uint64) bool { return checkSplit(t, float64(max(raw&mask46, 1)), a) }
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatal(err)
		}
	}
	odd := func(rawX, rawA uint64) bool {
		return checkSplit(t, float64(max(rawX&mask46, 1)), float64(rawA&mask46|1))
	}
	if err := quick.Check(odd, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if got := LCGPow(LCGMultiplier, 2); got != aSq {
		t.Errorf("LCGPow(a, 2) = %.0f, split multiply gives %.0f", got, aSq)
	}
	for _, seed := range []float64{DefaultSeed, 1, mask46} {
		for n := 0; n <= 41; n++ {
			if msg := vranlcVsSplit(seed, n); msg != "" {
				t.Fatal(msg)
			}
		}
	}
}

// vranlcVsSplit draws n deviates from seed through Vranlc and through
// the oracle and describes the first difference, or returns "".
func vranlcVsSplit(seed float64, n int) string {
	got := make([]float64, n)
	v, x := seed, seed
	Vranlc(&v, LCGMultiplier, got)
	for i, g := range got {
		if w := splitRandlc(&x, LCGMultiplier); g != w {
			return fmt.Sprintf("seed %.0f n=%d: deviate %d = %v, split multiply %v", seed, n, i, g, w)
		}
	}
	if v != x {
		return fmt.Sprintf("seed %.0f n=%d: state %.0f, split multiply %.0f", seed, n, v, x)
	}
	return ""
}

// FuzzVranlc checks Vranlc against the split-multiply oracle from any
// seed in the generator's domain, up to 4096 deviates.
func FuzzVranlc(f *testing.F) {
	f.Add(uint64(DefaultSeed), uint16(1024))
	f.Add(uint64(mask46), uint16(7))
	f.Fuzz(func(t *testing.T, rawSeed uint64, rawLen uint16) {
		if msg := vranlcVsSplit(float64(max(rawSeed&mask46, 1)), int(rawLen)%4097); msg != "" {
			t.Fatal(msg)
		}
	})
}

// BenchmarkVranlc draws 1024 deviates per op, EP's chunk.
func BenchmarkVranlc(b *testing.B) {
	y := make([]float64, 1024)
	x := DefaultSeed
	for i := 0; i < b.N; i++ {
		Vranlc(&x, LCGMultiplier, y)
	}
}
