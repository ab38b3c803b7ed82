package cg

import (
	"math"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/units"
)

// refKernel is CG as it was before its vectors and matvec buffers were
// allocated once per run: every product allocates its partial sums and
// segment. It is the oracle the rewritten kernel must match bit for bit.
type refKernel struct {
	cfg     Config
	offsets []int
	// Zetas holds the ζ estimate after each outer iteration (identical
	// on every rank; written by rank 0).
	Zetas []float64
	// FinalResidual is ‖r‖ from the last inner solve.
	FinalResidual float64
	initialRho    float64
}

func (k *refKernel) Name() string   { return "CG" }
func (k *refKernel) N() float64     { return float64(k.cfg.N) }
func (k *refKernel) Alpha() float64 { return 0.85 }
func (k *refKernel) Verify() error  { return nil }

// newRef takes New's validation and jump offsets.
func newRef(cfg Config) (*refKernel, error) {
	k, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &refKernel{cfg: cfg, offsets: k.offsets}, nil
}

// value returns the symmetric off-diagonal entry linking rows a and b
// (a ≠ b), a deterministic positive value bounded so rows stay
// diagonally dominant under the +shift diagonal.
func (k *refKernel) value(a, b int) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := uint64(lo)*2654435761 ^ uint64(hi)*0x9E3779B97F4A7C15
	frac := float64(h%4096) / 4096
	return (0.05 + 0.95*frac) / float64(2*k.cfg.Nonzer)
}

// diag returns the diagonally-dominant diagonal entry of a row.
func (k *refKernel) diag(row int) float64 {
	sum := 0.0
	n := k.cfg.N
	for _, d := range k.offsets {
		sum += k.value(row, (row+d)%n) + k.value(row, (row-d+n)%n)
	}
	return shift + sum
}

// refEntry is blockEntry with full-width block coordinates.
type refEntry struct {
	localRow int
	localCol int
	val      float64
}

func (k *refKernel) RunRank(rk *mpi.Rank) {
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
	var entries []refEntry
	for lr := 0; lr < rlen; lr++ {
		g := r0 + lr
		if g >= c0 && g < c0+clen {
			entries = append(entries, refEntry{lr, g - c0, k.diag(g)})
		}
		for _, d := range k.offsets {
			for _, gc := range []int{(g + d) % n, (g - d + n) % n} {
				if gc >= c0 && gc < c0+clen {
					entries = append(entries, refEntry{lr, gc - c0, k.value(g, gc)})
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

	// matvec computes q = A·v for a column-distributed v (segment of
	// length clen), returning the caller's column segment of q.
	step := 0
	matvec := func(v []float64) []float64 {
		// Local block product: w_partial over rows R_i.
		w := make([]float64, rlen)
		for _, e := range entries {
			w[e.localRow] += e.val * v[e.localCol]
		}
		rk.Compute(2*nnzLocal, miss*nnzLocal)

		// Row-team allreduce (recursive doubling over npcols ranks).
		for dist := 1; dist < npcols; dist *= 2 {
			peerCol := col ^ dist
			peer := row*npcols + peerCol
			tag := rowTeamTag + step*8 + log2i(dist)
			msg := rk.SendRecv(peer, tag, w, units.Bytes(8*rlen), peer, tag)
			pw := msg.Data.([]float64)
			nw := make([]float64, rlen)
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
		seg := make([]float64, clen)
		copy(seg, w[segStart:segStart+clen])
		rk.Compute(segFlops, miss*segFlops)
		var out []float64
		if partner == me {
			out = seg
		} else {
			tag := transposeTag + step
			msg := rk.SendRecv(partner, tag, seg, units.Bytes(8*clen), partner, tag)
			out = msg.Data.([]float64)
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
	for outer := 0; outer < k.cfg.NIter; outer++ {
		rk.PhaseEnter("cg.solve")
		// Inner CG: solve A z = x.
		z := make([]float64, clen)
		rvec := make([]float64, clen)
		pvec := make([]float64, clen)
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

// log2i is the loop the kernel used before math/bits: ⌊log2 v⌋ for v ≥ 1.
func log2i(v int) int {
	k := 0
	for v > 1 {
		v >>= 1
		k++
	}
	return k
}
