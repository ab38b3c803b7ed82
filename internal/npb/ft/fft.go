package ft

import (
	"fmt"
	"math"
	"math/bits"
)

// fftPlan caches twiddle factors and the bit-reversal permutation for one
// power-of-two length.
type fftPlan struct {
	n       int
	logN    int
	rev     []int
	twiddle []complex128 // forward twiddles e^{-2πik/n}, k < n/2
	inverse []complex128 // their conjugates, the inverse's twiddles
}

func newPlan(n int) (*fftPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ft: FFT length %d is not a power of two ≥ 2", n)
	}
	logN := bits.TrailingZeros(uint(n))
	p := &fftPlan{n: n, logN: logN}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	p.twiddle = make([]complex128, n/2)
	p.inverse = make([]complex128, n/2)
	for k := 0; k < n/2; k++ {
		angle := -2 * math.Pi * float64(k) / float64(n)
		w := complex(math.Cos(angle), math.Sin(angle))
		p.twiddle[k] = w
		p.inverse[k] = complex(real(w), -imag(w))
	}
	return p, nil
}

// twiddles returns the table for the given direction.
func (p *fftPlan) twiddles(forward bool) []complex128 {
	if forward {
		return p.twiddle
	}
	return p.inverse
}

// transform runs an in-place radix-2 Cooley–Tukey FFT over data
// (len(data) == plan length). forward selects the sign convention;
// the inverse is unnormalised (caller scales by 1/n once per full pass).
// It computes what transformRows(data, 1, forward) does, 1.5–2×
// faster on one contiguous pencil (BenchmarkPencil), which is why fftX
// and fftZ call it.
//
// The stages run in pairs: one pass over four points applies the two
// butterflies of a stage and the two of the next that read their
// results, with the operands and operation order of running the stages
// one at a time, so every float is the same. An odd stage count runs
// the size-2 stage alone first.
func (p *fftPlan) transform(data []complex128, forward bool) {
	if len(data) != p.n {
		panic(fmt.Sprintf("ft: transform length %d != plan %d", len(data), p.n))
	}
	for i, j := range p.rev {
		if i < j {
			data[i], data[j] = data[j], data[i]
		}
	}
	n, tw := p.n, p.twiddles(forward)
	half := 1 // the first stage of the pair spans butterflies (i, i+half)
	if p.logN&1 == 1 {
		for i := 0; i < n; i += 2 {
			a, b := data[i], data[i+1]*tw[0]
			data[i], data[i+1] = a+b, a-b
		}
		half = 2
	}
	for ; half < n; half <<= 2 {
		step := n / (4 * half) // the second stage's twiddle stride
		for k := 0; k < half; k++ {
			w1, w2, w3 := tw[2*k*step], tw[k*step], tw[(k+half)*step]
			for i0 := k; i0 < n; i0 += 4 * half {
				i1, i2, i3 := i0+half, i0+2*half, i0+3*half
				a, b := data[i0], data[i1]*w1
				c, d := data[i2], data[i3]*w1
				a, b = a+b, a-b
				c, d = c+d, c-d
				c, d = c*w2, d*w3
				data[i0], data[i2] = a+c, a-c
				data[i1], data[i3] = b+d, b-d
			}
		}
	}
}

// transformRows runs transform on each of the width columns of data,
// a row-major [n][width] array, with every butterfly sweeping whole
// rows: the same arithmetic per element as gathering each column into
// a pencil, without the stride-width gathers. Stages pair as in
// transform.
func (p *fftPlan) transformRows(data []complex128, width int, forward bool) {
	if len(data) != p.n*width {
		panic(fmt.Sprintf("ft: transformRows length %d != plan %d × width %d", len(data), p.n, width))
	}
	for i, j := range p.rev {
		if i < j {
			a, b := data[i*width:(i+1)*width], data[j*width:(j+1)*width]
			for x := range a {
				a[x], b[x] = b[x], a[x]
			}
		}
	}
	n, tw := p.n, p.twiddles(forward)
	half := 1
	if p.logN&1 == 1 {
		for i := 0; i < n*width; i += 2 * width {
			lo, hi := data[i:i+width], data[i+width:i+2*width]
			for x := range lo {
				a, b := lo[x], hi[x]*tw[0]
				lo[x], hi[x] = a+b, a-b
			}
		}
		half = 2
	}
	for ; half < n; half <<= 2 {
		step := n / (4 * half)
		h := half * width // the row offset of a butterfly partner
		for k := 0; k < half; k++ {
			w1, w2, w3 := tw[2*k*step], tw[k*step], tw[(k+half)*step]
			for i := k * width; i < n*width; i += 4 * h {
				r0 := data[i : i+width]
				r1 := data[i+h:][:len(r0)]
				r2 := data[i+2*h:][:len(r0)]
				r3 := data[i+3*h:][:len(r0)]
				for x := range r0 {
					a, b := r0[x], r1[x]*w1
					c, d := r2[x], r3[x]*w1
					a, b = a+b, a-b
					c, d = c+d, c-d
					c, d = c*w2, d*w3
					r0[x], r2[x] = a+c, a-c
					r1[x], r3[x] = b+d, b-d
				}
			}
		}
	}
}

// fftOps returns the canonical operation count 5·n·log2(n) of one
// radix-2 complex FFT of length n (model accounting).
func fftOps(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}
