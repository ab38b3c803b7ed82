package fit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3 + 2*v
	}
	a, b, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-3) > 1e-9 || math.Abs(b-2) > 1e-9 {
		t.Fatalf("fit = (%g, %g), want (3, 2)", a, b)
	}
}

func TestLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x, y []float64
	for i := 0; i < 200; i++ {
		v := float64(i)
		x = append(x, v)
		y = append(y, 10+0.5*v+rng.NormFloat64()*0.1)
	}
	a, b, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-10) > 0.2 || math.Abs(b-0.5) > 0.01 {
		t.Fatalf("noisy fit = (%g, %g), want ≈(10, 0.5)", a, b)
	}
}

func TestHockneyRecovery(t *testing.T) {
	// MPPTest-style: times from Ts + m·Tb must recover Ts and Tb.
	ts, tb := 2.6e-6, 0.2e-9
	var sizes, times []float64
	for _, m := range []float64{0, 64, 1024, 4096, 65536, 1 << 20} {
		sizes = append(sizes, m)
		times = append(times, ts+m*tb)
	}
	a, b, err := Linear(sizes, times)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-ts)/ts > 1e-9 || math.Abs(b-tb)/tb > 1e-9 {
		t.Fatalf("recovered (Ts=%g, Tb=%g), want (%g, %g)", a, b, ts, tb)
	}
}

func TestPowerLawRecoversGamma(t *testing.T) {
	// ΔPc(f) = c·f^γ with γ=2 (paper Eq. 20).
	c0, gamma0 := 1.913, 2.0
	var f, p []float64
	for _, freq := range []float64{2.0, 2.2, 2.4, 2.6, 2.8} {
		f = append(f, freq)
		p = append(p, c0*math.Pow(freq, gamma0))
	}
	c, gamma, err := PowerLaw(f, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gamma-gamma0) > 1e-9 || math.Abs(c-c0)/c0 > 1e-9 {
		t.Fatalf("power law = (%g, %g), want (%g, %g)", c, gamma, c0, gamma0)
	}
}

func TestPowerLawRejectsNonPositive(t *testing.T) {
	if _, _, err := PowerLaw([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Fatal("negative x must be rejected")
	}
	if _, _, err := PowerLaw([]float64{1, 2}, []float64{0, 2}); err == nil {
		t.Fatal("zero y must be rejected")
	}
}

func TestOLSMultivariate(t *testing.T) {
	// y = 2·x1 + 3·x2 − 1.
	rows := [][]float64{
		{1, 0, 0},
		{1, 1, 0},
		{1, 0, 1},
		{1, 1, 1},
		{1, 2, 1},
		{1, 1, 2},
	}
	y := make([]float64, len(rows))
	for i, r := range rows {
		y[i] = -1*r[0] + 2*r[1] + 3*r[2]
	}
	beta, err := OLS(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 1e-9 {
			t.Fatalf("beta = %v, want %v", beta, want)
		}
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Error("empty system must error")
	}
	if _, err := OLS([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined system must error")
	}
	// Collinear features → singular.
	rows := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if _, err := OLS(rows, []float64{1, 2, 3}); err == nil {
		t.Error("collinear features must be singular")
	}
	// Ragged rows.
	if _, err := OLS([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows must error")
	}
}

// Property: OLS on exactly-generated data recovers the coefficients for
// any well-conditioned random design.
func TestOLSRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		rows := make([][]float64, 30)
		y := make([]float64, 30)
		for i := range rows {
			rows[i] = []float64{1, rng.Float64() * 10, rng.Float64() * 10}
			for j, c := range truth {
				y[i] += c * rows[i][j]
			}
		}
		beta, err := OLS(rows, y)
		if err != nil {
			return false
		}
		for j := range truth {
			if math.Abs(beta[j]-truth[j]) > 1e-6*(1+math.Abs(truth[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
