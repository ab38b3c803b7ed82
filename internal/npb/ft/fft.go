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
// It computes what transformRows(data, 1, forward) does, about 1.7×
// faster on one contiguous pencil (BenchmarkPencil), which is why fftX
// and fftZ call it.
func (p *fftPlan) transform(data []complex128, forward bool) {
	if len(data) != p.n {
		panic(fmt.Sprintf("ft: transform length %d != plan %d", len(data), p.n))
	}
	for i, j := range p.rev {
		if i < j {
			data[i], data[j] = data[j], data[i]
		}
	}
	tw := p.twiddles(forward)
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*step]
				a := data[start+k]
				b := data[start+k+half] * w
				data[start+k] = a + b
				data[start+k+half] = a - b
			}
		}
	}
}

// transformRows runs transform on each of the width columns of data,
// a row-major [n][width] array, with every butterfly sweeping whole
// rows: the same arithmetic per element as gathering each column into
// a pencil, without the stride-width gathers.
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
	tw := p.twiddles(forward)
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*step]
				lo := data[(start+k)*width : (start+k+1)*width]
				hi := data[(start+k+half)*width : (start+k+half+1)*width]
				for x := range lo {
					a := lo[x]
					b := hi[x] * w
					lo[x] = a + b
					hi[x] = a - b
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
