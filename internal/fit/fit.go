// Package fit provides the least-squares machinery used to derive model
// parameters from measurements, reproducing the paper's methodology: the
// machine vector comes from microbenchmarks (LMbench's lat_mem_rd for tm,
// MPPTest for Ts/Tb, and measured ΔPc(f) points for γ; §IV.B).
package fit

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports an unsolvable normal system (collinear basis or too
// few points).
var ErrSingular = errors.New("fit: singular normal equations")

// OLS solves min ‖X·β − y‖² by normal equations with partial-pivot
// Gaussian elimination. X is row-major: len(X) observations, each with
// the same number of features.
func OLS(x [][]float64, y []float64) ([]float64, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("fit: %d observations vs %d responses", n, len(y))
	}
	k := len(x[0])
	if k == 0 {
		return nil, errors.New("fit: no features")
	}
	if n < k {
		return nil, fmt.Errorf("fit: %d observations cannot identify %d coefficients", n, k)
	}
	for i, row := range x {
		if len(row) != k {
			return nil, fmt.Errorf("fit: row %d has %d features, want %d", i, len(row), k)
		}
	}

	// Normal equations: (XᵀX)β = Xᵀy.
	xtx := make([][]float64, k)
	xty := make([]float64, k)
	for i := 0; i < k; i++ {
		xtx[i] = make([]float64, k)
	}
	for _, row := range x {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for r, row := range x {
		for i := 0; i < k; i++ {
			xty[i] += row[i] * y[r]
		}
	}
	return solve(xtx, xty)
}

// solve runs Gaussian elimination with partial pivoting on a copy of the
// system.
func solve(a [][]float64, b []float64) ([]float64, error) {
	k := len(a)
	m := make([][]float64, k)
	for i := range a {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < k; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for r := col + 1; r < k; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= k; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back substitution.
	beta := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		v := m[i][k]
		for j := i + 1; j < k; j++ {
			v -= m[i][j] * beta[j]
		}
		beta[i] = v / m[i][i]
	}
	return beta, nil
}

// Linear fits y = a + b·x and returns (a, b). This is the MPPTest-style
// fit recovering the Hockney parameters from ping-pong times: a = Ts,
// b = Tb when x is the message size in bytes.
func Linear(x, y []float64) (a, b float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, fmt.Errorf("fit: need ≥2 matched points, got %d/%d", len(x), len(y))
	}
	rows := make([][]float64, len(x))
	for i, v := range x {
		rows[i] = []float64{1, v}
	}
	beta, err := OLS(rows, y)
	if err != nil {
		return 0, 0, err
	}
	return beta[0], beta[1], nil
}

// PowerLaw fits y = c·x^γ by log-log linear regression and returns
// (c, γ). It is used to recover the power-frequency exponent γ from
// measured ΔPc(f) points (paper Eq. 20, after Kim et al.).
func PowerLaw(x, y []float64) (c, gamma float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, fmt.Errorf("fit: need ≥2 matched points, got %d/%d", len(x), len(y))
	}
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return 0, 0, fmt.Errorf("fit: power law needs positive data, got (%g, %g)", x[i], y[i])
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	a, b, err := Linear(lx, ly)
	if err != nil {
		return 0, 0, err
	}
	return math.Exp(a), b, nil
}
