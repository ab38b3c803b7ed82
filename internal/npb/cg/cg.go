// Package cg implements the NPB CG kernel: repeated conjugate-gradient
// solves against a large sparse symmetric positive-definite matrix, with
// the eigenvalue-style estimate ζ = shift + 1/(x·z) refined each outer
// iteration (paper §V.B.3).
//
// Parallel decomposition follows NPB CG: the p ranks form an
// nprows × npcols grid with nprows = 2^⌊k/2⌋ and npcols = 2^⌈k/2⌉
// (p = 2^k), each rank owning one block of the matrix. A matrix–vector
// product needs a row-team reduction (recursive doubling over the npcols
// ranks of a row) followed by a transpose exchange with the rank holding
// the caller's column segment — the communication whose √p growth shapes
// the paper's CG energy-efficiency surfaces. Dot products are global
// allreduces; vector updates run redundantly in every row team, which is
// exactly the parallel computation overhead ΔWon of the model.
//
// The matrix is a deterministic symmetric circulant-pattern sparse matrix
// with a diagonally-dominant diagonal (hence SPD), so every entry — and
// each row's diagonal — is locally computable by any rank from the row
// index alone, preserving NPB's property that serial and parallel runs
// operate on identical data.
package cg

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/app"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/units"
)

// Operation-count conventions (mirrored by internal/app's CG closed
// forms): 2 flops per nonzero in the matvec with one off-chip access per
// nonzero (irregular x gather), and one off-chip access per element per
// full vector sweep.
const (
	cgInnerSteps = 25
	shift        = 20.0
	transposeTag = 50000
	rowTeamTag   = 60000
)

// Config sizes a CG instance.
type Config struct {
	// N is the matrix order; must be divisible by the process-grid
	// column count (a power of two ≤ 16 for the supported p ≤ 256).
	N int
	// Nonzer is the number of ± jump offsets: each row has 2·Nonzer
	// off-diagonal entries plus the diagonal.
	Nonzer int
	// NIter is the number of outer (ζ) iterations.
	NIter int
}

// Classes returns NPB-flavoured problem sizes (orders rounded to
// multiples of 128 so every supported process grid divides evenly).
func Classes() map[string]Config {
	return map[string]Config{
		"T": {N: 512, Nonzer: 4, NIter: 3},
		"S": {N: 1408, Nonzer: 5, NIter: 15},
		"W": {N: 7040, Nonzer: 6, NIter: 15},
		"A": {N: 14080, Nonzer: 9, NIter: 15},
		"B": {N: 75008, Nonzer: 11, NIter: 20},
	}
}

// Kernel is one CG run instance. Create with New, use once.
type Kernel struct {
	cfg     Config
	offsets []int
	// Zetas holds the ζ estimate after each outer iteration (identical
	// on every rank; written by rank 0).
	Zetas []float64
	// FinalResidual is ‖r‖ from the last inner solve.
	FinalResidual float64
	initialRho    float64
}

// New validates the configuration and prepares a run instance.
func New(cfg Config) (*Kernel, error) {
	if cfg.N < 64 {
		return nil, fmt.Errorf("cg: order %d too small", cfg.N)
	}
	if cfg.Nonzer < 1 || cfg.Nonzer > 64 {
		return nil, fmt.Errorf("cg: nonzer %d outside [1,64]", cfg.Nonzer)
	}
	if cfg.NIter < 1 {
		return nil, fmt.Errorf("cg: niter %d < 1", cfg.NIter)
	}
	k := &Kernel{cfg: cfg}
	// Deterministic distinct jump offsets spread pseudo-uniformly over
	// [1, n/2): like NPB's random column selection, this distributes
	// nonzeros evenly over the 2-D process-grid blocks. Clustered
	// offsets would concentrate the band near the diagonal and leave the
	// off-diagonal blocks empty, structurally imbalancing the matvec.
	seen := map[int]bool{}
	for i := 0; len(k.offsets) < cfg.Nonzer; i++ {
		h := uint64(i)*2654435761 + 0x9E3779B9
		d := int(h%uint64(cfg.N/2-1)) + 1
		if !seen[d] {
			seen[d] = true
			k.offsets = append(k.offsets, d)
		}
	}
	return k, nil
}

// Name implements npb.Kernel.
func (k *Kernel) Name() string { return "CG" }

// N implements npb.Kernel: the matrix order.
func (k *Kernel) N() float64 { return float64(k.cfg.N) }

// Alpha implements npb.Kernel with app.CG's α (paper Table 2).
func (k *Kernel) Alpha() float64 { return app.CG(0, 0).Alpha }

// value returns the symmetric off-diagonal entry linking rows a and b
// (a ≠ b), a deterministic positive value bounded so rows stay
// diagonally dominant under the +shift diagonal.
func (k *Kernel) value(a, b int) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := uint64(lo)*2654435761 ^ uint64(hi)*0x9E3779B97F4A7C15
	frac := float64(h%4096) / 4096
	return (0.05 + 0.95*frac) / float64(2*k.cfg.Nonzer)
}

// diag returns the diagonally-dominant diagonal entry of a row.
func (k *Kernel) diag(row int) float64 {
	sum := 0.0
	n := k.cfg.N
	for _, d := range k.offsets {
		sum += k.value(row, (row+d)%n) + k.value(row, (row-d+n)%n)
	}
	return shift + sum
}

// grid returns (nprows, npcols) for p = 2^k ranks.
func grid(p int) (int, int, error) {
	if p&(p-1) != 0 {
		return 0, 0, fmt.Errorf("cg: p=%d must be a power of two", p)
	}
	logp := 0
	for v := p; v > 1; v >>= 1 {
		logp++
	}
	r := 1 << uint(logp/2)
	c := p / r
	return r, c, nil
}

// blockEntry is one stored nonzero of a local matrix block. Block
// coordinates are below the matrix order, so 32 bits hold them.
type blockEntry struct {
	localRow int32
	localCol int32
	val      float64
}

// RunRank implements npb.Kernel.
func (k *Kernel) RunRank(rk *mpi.Rank) {
	p := rk.Size()
	nprows, npcols, err := grid(p)
	if err != nil {
		rk.Abort("%v", err)
	}
	n := k.cfg.N
	if n%npcols != 0 || n%nprows != 0 {
		rk.Abort("cg: order %d not divisible by process grid %dx%d", n, nprows, npcols)
	}
	me := rk.Rank()
	row := me / npcols // grid row index i
	col := me % npcols // grid column index j
	rlen := n / nprows // rows per block
	clen := n / npcols // cols per block (= vector segment length)
	r0 := row * rlen
	c0 := col * clen

	// --- Matrix block construction (rows R_i × cols C_j). ---
	rk.PhaseEnter("cg.makea")
	inBlock := func(gc int) bool { return gc >= c0 && gc < c0+clen }
	nnz := 0
	for g := r0; g < r0+rlen; g++ {
		if inBlock(g) {
			nnz++
		}
		for _, d := range k.offsets {
			if inBlock((g + d) % n) {
				nnz++
			}
			if inBlock((g - d + n) % n) {
				nnz++
			}
		}
	}
	entries := make([]blockEntry, 0, nnz)
	for lr := 0; lr < rlen; lr++ {
		g := r0 + lr
		if inBlock(g) {
			entries = append(entries, blockEntry{int32(lr), int32(g - c0), k.diag(g)})
		}
		for _, d := range k.offsets {
			for _, gc := range [2]int{(g + d) % n, (g - d + n) % n} {
				if inBlock(gc) {
					entries = append(entries, blockEntry{int32(lr), int32(gc - c0), k.value(g, gc)})
				}
			}
		}
	}
	// Generation cost: hashing each candidate entry (streaming pass).
	rk.Compute(20*float64(rlen*(2*k.cfg.Nonzer+1)), float64(len(entries)))
	rk.PhaseExit("cg.makea")

	nnzLocal := float64(len(entries))
	segFlops := float64(clen)

	// Cache model: CG reuses its matrix block and vectors across
	// 25 inner iterations, so the fraction of counted accesses that
	// reach main memory depends on whether the per-rank working set
	// (block entries + the five CG vectors + the row-team buffer) fits
	// the core's cache. Sequential CG streams (working set ≫ cache);
	// divided across a process grid the set shrinks and the parallel
	// run's total off-chip traffic can undercut the sequential run's —
	// the paper's negative fitted ΔWoff.
	ws := units.Bytes(12*nnzLocal + 8*5*float64(clen) + 8*float64(rlen))
	miss := machine.MissFraction(ws, rk.Machine().CacheBytes)

	// Transpose partner (involution; see package comment).
	var partner, partnerC int
	if npcols == nprows {
		partner = col*npcols + row
		partnerC = row
	} else { // npcols == 2·nprows
		partner = (col/2)*npcols + 2*row + (col & 1)
		partnerC = 2*row + (col & 1)
	}

	// The matvec's buffers, allocated once per run. sums[0] holds the
	// local block product and sums[d+1] the row-team partial sum after
	// doubling step d; the last one also carries the segment shipped to
	// the transpose partner, and q receives this rank's segment. Peers
	// are sent &sums[d] and &seg, the shipped segment's header, and read
	// through them by reference (mpi.Message), so within one product
	// each is written once; between two products every rank passes a
	// dot product's allreduce, which it enters only after consuming
	// what it received.
	sums := make([][]float64, bits.Len(uint(npcols)))
	for i := range sums {
		sums[i] = make([]float64, rlen)
	}
	q := make([]float64, clen)
	var seg []float64

	// matvec computes q = A·v for a column-distributed v (segment of
	// length clen), returning the caller's column segment of q. The
	// result is valid until the next call.
	step := 0
	matvec := func(v []float64) []float64 {
		// Local block product: w_partial over rows R_i.
		w := sums[0]
		clear(w)
		for _, e := range entries {
			w[e.localRow] += e.val * v[e.localCol]
		}
		rk.Compute(2*nnzLocal, miss*nnzLocal)

		// Row-team allreduce (recursive doubling over npcols ranks).
		for dist, d := 1, 1; dist < npcols; dist, d = dist*2, d+1 {
			peerCol := col ^ dist
			peer := row*npcols + peerCol
			tag := rowTeamTag + step*8 + bits.Len(uint(dist)) - 1
			msg := rk.SendRecv(peer, tag, &sums[d-1], units.Bytes(8*rlen), peer, tag)
			pw := *msg.Data.(*[]float64)
			nw := sums[d]
			for i := range w {
				nw[i] = w[i] + pw[i]
			}
			w = nw
			rk.Compute(float64(rlen), miss*2*float64(rlen))
		}

		// Transpose exchange: ship the partner's column segment of w,
		// receive mine. The partner's segment C_partnerC lies inside my
		// row range R_row.
		segStart := partnerC*clen - r0
		out := w[segStart : segStart+clen]
		rk.Compute(segFlops, miss*segFlops)
		if partner != me {
			tag := transposeTag + step
			seg = out
			msg := rk.SendRecv(partner, tag, &seg, units.Bytes(8*clen), partner, tag)
			out = q
			copy(out, *msg.Data.(*[]float64))
		}
		step++
		return out
	}

	// dot computes a global dot product of column-distributed vectors;
	// each column segment is replicated nprows times, so the allreduce
	// total is divided by nprows.
	dot := func(a, b []float64) float64 {
		local := 0.0
		for i := range a {
			local += a[i] * b[i]
		}
		rk.Compute(2*segFlops, miss*2*segFlops)
		tot := mpi.Allreduce(rk, local, 8, func(x, y float64) float64 { return x + y })
		return tot / float64(nprows)
	}

	// --- Outer ζ iterations. ---
	if me == 0 {
		k.Zetas = make([]float64, 0, k.cfg.NIter)
	}
	x := make([]float64, clen)
	for i := range x {
		x[i] = 1
	}
	z := make([]float64, clen)
	rvec := make([]float64, clen)
	pvec := make([]float64, clen)
	for outer := 0; outer < k.cfg.NIter; outer++ {
		rk.PhaseEnter("cg.solve")
		// Inner CG: solve A z = x.
		clear(z)
		copy(rvec, x)
		copy(pvec, x)
		rk.Compute(2*segFlops, miss*2*segFlops)
		rho := dot(rvec, rvec)
		if outer == 0 && k.initialRho == 0 {
			k.initialRho = rho
		}
		for it := 0; it < cgInnerSteps; it++ {
			q := matvec(pvec)
			alpha := rho / dot(pvec, q)
			for i := range z {
				z[i] += alpha * pvec[i]
				rvec[i] -= alpha * q[i]
			}
			rk.Compute(4*segFlops, miss*4*segFlops)
			rho0 := rho
			rho = dot(rvec, rvec)
			beta := rho / rho0
			for i := range pvec {
				pvec[i] = rvec[i] + beta*pvec[i]
			}
			rk.Compute(2*segFlops, miss*2*segFlops)
		}
		// Residual ‖x − A·z‖.
		az := matvec(z)
		diffNorm := 0.0
		for i := range az {
			d := x[i] - az[i]
			diffNorm += d * d
		}
		rk.Compute(3*segFlops, miss*2*segFlops)
		res := math.Sqrt(mpi.Allreduce(rk, diffNorm, 8,
			func(a, b float64) float64 { return a + b }) / float64(nprows))
		rk.PhaseExit("cg.solve")

		rk.PhaseEnter("cg.zeta")
		zeta := shift + 1/dot(x, z)
		znorm := math.Sqrt(dot(z, z))
		for i := range x {
			x[i] = z[i] / znorm
		}
		rk.Compute(segFlops, miss*2*segFlops)
		if me == 0 {
			k.Zetas = append(k.Zetas, zeta)
			k.FinalResidual = res
		}
		rk.PhaseExit("cg.zeta")
	}
}

// Verify implements npb.Kernel: the solver must actually have solved the
// system (small residual against a diagonally-dominant SPD matrix) and
// the ζ sequence must have settled.
func (k *Kernel) Verify() error {
	if len(k.Zetas) != k.cfg.NIter {
		return fmt.Errorf("cg: recorded %d ζ values, want %d", len(k.Zetas), k.cfg.NIter)
	}
	for i, z := range k.Zetas {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return fmt.Errorf("cg: ζ[%d] not finite", i)
		}
		if z <= shift {
			return fmt.Errorf("cg: ζ[%d]=%g not above shift %g (A is positive definite)", i, z, shift)
		}
	}
	if k.FinalResidual > 1e-6*math.Sqrt(k.initialRho) {
		return fmt.Errorf("cg: final residual %g did not converge (initial ‖r‖ %g)",
			k.FinalResidual, math.Sqrt(k.initialRho))
	}
	if k.cfg.NIter >= 3 {
		// The ζ sequence is a power-method iteration whose rate depends
		// on the spectral gap; require it to be settling (1e-3 relative
		// step), not fully converged.
		last, prev := k.Zetas[k.cfg.NIter-1], k.Zetas[k.cfg.NIter-2]
		if math.Abs(last-prev) > 1e-3*math.Abs(last) {
			return fmt.Errorf("cg: ζ not settling: %g vs %g", prev, last)
		}
	}
	return nil
}
