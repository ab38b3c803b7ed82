package ft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n²) reference.
func naiveDFT(in []complex128, forward bool) []complex128 {
	n := len(in)
	out := make([]complex128, n)
	sign := -1.0
	if !forward {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			angle := sign * 2 * math.Pi * float64(k*j) / float64(n)
			out[k] += in[j] * cmplx.Exp(complex(0, angle))
		}
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 16, 64} {
		plan, err := newPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]complex128, n)
		for i := range data {
			data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		want := naiveDFT(data, true)
		got := make([]complex128, n)
		copy(got, data)
		plan.transform(got, true)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d: bin %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{4, 32, 256} {
		plan, err := newPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]complex128, n)
		for i := range orig {
			orig[i] = complex(rng.Float64(), rng.Float64())
		}
		work := make([]complex128, n)
		copy(work, orig)
		plan.transform(work, true)
		plan.transform(work, false)
		for i := range work {
			back := work[i] / complex(float64(n), 0)
			if cmplx.Abs(back-orig[i]) > 1e-10 {
				t.Fatalf("n=%d: element %d: %v vs %v", n, i, back, orig[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 128
	plan, err := newPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]complex128, n)
	var spatial float64
	for i := range data {
		data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		spatial += real(data[i])*real(data[i]) + imag(data[i])*imag(data[i])
	}
	plan.transform(data, true)
	var freq float64
	for _, v := range data {
		freq += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freq/float64(n)-spatial)/spatial > 1e-12 {
		t.Fatalf("Parseval: spatial %g vs freq/n %g", spatial, freq/float64(n))
	}
}

func TestPlanRejectsBadLengths(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12, 100} {
		if _, err := newPlan(n); err == nil {
			t.Errorf("length %d must be rejected", n)
		}
	}
}

func TestFFTOpsFormula(t *testing.T) {
	if got := fftOps(1024); got != 5*1024*10 {
		t.Fatalf("fftOps(1024) = %g", got)
	}
}

// sameBits reports whether two complex slices are equal bit for bit.
func sameBits(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestTransformMatchesReference pins transform, and transformRows at
// widths 1, 3 and 64, to refTransform bit for bit in both directions:
// the kernel's FFTs may be restructured, never re-rounded. Besides
// uniform deviates it feeds small integers, whose sums cancel exactly,
// and signed zeros: a multiply by the unit twiddle tw[0] can turn −0
// into +0, so a loop that skips it shows here.
func TestTransformMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	negZero := math.Copysign(0, -1)
	inputs := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() - 0.5 }},
		{"integer", func() float64 { return float64(rng.Intn(9) - 4) }},
		{"signed zero", func() float64 { return []float64{0, negZero}[rng.Intn(2)] }},
	}
	for _, in := range inputs {
		fill := func(v []complex128) []complex128 {
			for i := range v {
				v[i] = complex(in.draw(), in.draw())
			}
			return v
		}
		for n := 2; n <= 256; n *= 2 {
			plan, err := newPlan(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, forward := range []bool{true, false} {
				orig := fill(make([]complex128, n))
				got := append([]complex128(nil), orig...)
				want := append([]complex128(nil), orig...)
				plan.transform(got, forward)
				refTransform(plan, want, forward)
				if !sameBits(got, want) {
					t.Errorf("%s n=%d forward=%v: transform differs from refTransform", in.name, n, forward)
				}

				for _, width := range []int{1, 3, 64} {
					rows := fill(make([]complex128, n*width))
					want := make([]complex128, len(rows))
					column := make([]complex128, n)
					for x := 0; x < width; x++ {
						for y := range column {
							column[y] = rows[y*width+x]
						}
						refTransform(plan, column, forward)
						for y, v := range column {
							want[y*width+x] = v
						}
					}
					plan.transformRows(rows, width, forward)
					if !sameBits(rows, want) {
						t.Errorf("%s n=%d width=%d forward=%v: transformRows differs from refTransform", in.name, n, width, forward)
					}
				}
			}
		}
	}
}

// BenchmarkPencil times one contiguous pencil through transform and
// through transformRows at width 1, the two ways fftX and fftZ could
// run it.
func BenchmarkPencil(b *testing.B) {
	for _, n := range []int{64, 256} {
		plan, err := newPlan(n)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]complex128, n)
		for i := range data {
			data[i] = complex(float64(i%7), float64(i%5))
		}
		b.Run(fmt.Sprintf("transform/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.transform(data, i&1 == 0)
			}
		})
		b.Run(fmt.Sprintf("rows1/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.transformRows(data, 1, i&1 == 0)
			}
		})
	}
}
