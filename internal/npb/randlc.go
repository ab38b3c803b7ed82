package npb

// The NPB linear congruential generator:
//
//	x_{k+1} = a·x_k mod 2^46,  value = x_k · 2^-46 ∈ (0, 1)
//
// with the standard multiplier a = 5^13. All NPB kernels draw their
// deterministic pseudo-random input data from this generator, which is
// why published NPB runs are bit-reproducible; we keep the same scheme so
// serial and parallel executions of our kernels generate identical data.
//
// The implementation is the classic double-precision split-multiply: a
// and x are represented exactly in float64 (46 bits), and the product is
// formed in four 23-bit partial products.

const (
	// R23 … T46 are the scaling constants of the 23/46-bit splits.
	r23 = 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5
	t23 = 1.0 / r23
	r46 = r23 * r23
	t46 = t23 * t23

	// LCGMultiplier is the NPB default a = 5^13.
	LCGMultiplier = 1220703125.0

	// DefaultSeed is the NPB default starting seed.
	DefaultSeed = 271828183.0
)

// Randlc advances x by one LCG step and returns the uniform deviate in
// (0, 1). x must hold a value in [1, 2^46).
func Randlc(x *float64, a float64) float64 {
	// Break a and x into 23-bit halves: a = 2^23·a1 + a2, x = 2^23·x1+x2.
	t1 := r23 * a
	a1 := float64(int64(t1))
	a2 := a - t23*a1

	t1 = r23 * *x
	x1 := float64(int64(t1))
	x2 := *x - t23*x1

	// z = a1·x2 + a2·x1 (mod 2^23), then lower 46 bits of a·x.
	t1 = a1*x2 + a2*x1
	t2 := float64(int64(r23 * t1))
	z := t1 - t23*t2
	t3 := t23*z + a2*x2
	t4 := float64(int64(r46 * t3))
	*x = t3 - t46*t4
	return r46 * *x
}

// LCGPow returns a^k mod 2^46 in the NPB representation, used to jump a
// generator ahead by k steps: seed_k = seed · a^k mod 2^46.
func LCGPow(a float64, k int64) float64 {
	result := 1.0
	base := a
	for k > 0 {
		if k&1 == 1 {
			mulMod46(&result, base)
		}
		mulMod46(&base, base)
		k >>= 1
	}
	return result
}

// mulMod46 sets x = x·a mod 2^46 using the same split arithmetic as
// Randlc.
func mulMod46(x *float64, a float64) {
	t1 := r23 * a
	a1 := float64(int64(t1))
	a2 := a - t23*a1

	t1 = r23 * *x
	x1 := float64(int64(t1))
	x2 := *x - t23*x1

	t1 = a1*x2 + a2*x1
	t2 := float64(int64(r23 * t1))
	z := t1 - t23*t2
	t3 := t23*z + a2*x2
	t4 := float64(int64(r46 * t3))
	*x = t3 - t46*t4
}

// SeedAt returns the LCG state after k steps from seed: seed·a^k mod 2^46.
// Kernels use it to give rank r the state at its chunk's start without
// generating the preceding deviates.
func SeedAt(seed, a float64, k int64) float64 {
	s := seed
	mulMod46(&s, LCGPow(a, k))
	return s
}

// Vranlc fills y with the next len(y) deviates of the generator at *x and
// leaves *x where len(y) calls of Randlc(x, a) would: the same values,
// bit for bit. It advances the odd and even steps as two independent
// chains with multiplier a² mod 2^46, so the processor overlaps their
// latency; the generator is exact integer arithmetic, so two steps by a²
// are four steps by a.
func Vranlc(x *float64, a float64, y []float64) {
	if len(y) == 0 {
		return
	}
	a2 := a
	mulMod46(&a2, a)
	odd := *x
	mulMod46(&odd, a)
	even := odd
	mulMod46(&even, a)
	i := 0
	for ; i+1 < len(y); i += 2 {
		y[i], y[i+1] = r46*odd, r46*even
		*x = even
		mulMod46(&odd, a2)
		mulMod46(&even, a2)
	}
	if i < len(y) {
		y[i] = r46 * odd
		*x = odd
	}
}
