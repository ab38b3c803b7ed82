package npb

import (
	"fmt"
	"math"
)

// The NPB linear congruential generator:
//
//	x_{k+1} = a·x_k mod 2^46,  value = x_k · 2^-46 ∈ (0, 1)
//
// with the standard multiplier a = 5^13. All NPB kernels draw their
// deterministic pseudo-random input data from this generator, which is
// why published NPB runs are bit-reproducible; we keep the same scheme so
// serial and parallel executions of our kernels generate identical data.
//
// The recurrence is integer arithmetic and runs as such: x·a on uint64
// wraps modulo 2^64, a multiple of 2^46, so its low 46 bits are
// a·x mod 2^46 exactly. States and multipliers cross the API as
// integer-valued float64s (NPB's representation, exact below 2^53).

const (
	mask46 = 1<<46 - 1
	r46    = 1.0 / (1 << 46)

	// LCGMultiplier is the NPB default a = 5^13.
	LCGMultiplier = 1220703125.0
	// DefaultSeed is the NPB default starting seed.
	DefaultSeed = 271828183.0
)

// ResolveSeed returns the seed a kernel runs from: DefaultSeed for 0,
// otherwise seed itself, which must be an integer in [1, 2^46), the
// generator's domain.
func ResolveSeed(seed float64) (float64, error) {
	if seed == 0 {
		return DefaultSeed, nil
	}
	if !(seed >= 1 && seed < 1<<46) || seed != math.Trunc(seed) {
		return 0, fmt.Errorf("seed %g is not an integer in [1, 2^46)", seed)
	}
	return seed, nil
}

// mulMod46 returns x·a mod 2^46.
func mulMod46(x, a uint64) uint64 { return x * a & mask46 }

// Randlc advances x by one LCG step and returns the uniform deviate in
// (0, 1). x must hold a value in [1, 2^46).
func Randlc(x *float64, a float64) float64 {
	*x = float64(mulMod46(uint64(*x), uint64(a)))
	return r46 * *x
}

// LCGPow returns a^k mod 2^46, used to jump a generator ahead by k
// steps: seed_k = seed · a^k mod 2^46.
func LCGPow(a float64, k int64) float64 {
	base, result := uint64(a), uint64(1)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			result = mulMod46(result, base)
		}
		base = mulMod46(base, base)
	}
	return float64(result)
}

// SeedAt returns the LCG state after k steps from seed: seed·a^k mod 2^46.
// Kernels use it to give rank r the state at its chunk's start without
// generating the preceding deviates.
func SeedAt(seed, a float64, k int64) float64 {
	return float64(mulMod46(uint64(seed), uint64(LCGPow(a, k))))
}

// Vranlc fills y with the next len(y) deviates of the generator at *x and
// leaves *x where len(y) calls of Randlc(x, a) would: the same values,
// bit for bit.
func Vranlc(x *float64, a float64, y []float64) {
	s, m := uint64(*x), uint64(a)
	for i := range y {
		s = mulMod46(s, m)
		y[i] = r46 * float64(s)
	}
	*x = float64(s)
}
