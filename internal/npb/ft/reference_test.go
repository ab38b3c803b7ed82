package ft

import (
	"math"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/units"
)

// refKernel is FT as it was before its buffers moved into a per-rank
// slab: every iteration allocates its transpose blocks and grids, the
// y-FFT gathers stride-nx pencils and every transform runs refTransform.
// It is the oracle the rewritten kernel must match bit for bit.
type refKernel struct {
	cfg Config
	n   int // total elements

	// Per-rank slabs; index by rank. dz: layout Z ([lz][ny][nx]);
	// dx: layout X ([lx][ny][nz]); freq: frequency-domain copy of dx;
	// twid: evolution factors per local frequency element.
	dz   [][]complex128
	dx   [][]complex128
	freq [][]complex128
	twid [][]float64

	planX, planY, planZ *fftPlan

	// Verification state.
	SpatialEnergy float64      // Σ|u|² before the forward transform
	FreqEnergy    float64      // Σ|ũ|²/n after it
	Checksums     []complex128 // per-iteration spatial checksums
}

func (k *refKernel) Name() string   { return "FT" }
func (k *refKernel) N() float64     { return float64(k.n) }
func (k *refKernel) Alpha() float64 { return 0.86 }
func (k *refKernel) Verify() error  { return nil }

// refTransform is the radix-2 loop fftPlan.transform ran before it had
// an inverse twiddle table: the inverse conjugates each forward twiddle
// in the butterfly. It reads only the plan's permutation and forward
// twiddles, so a change to transform cannot move the oracle with it.
func refTransform(p *fftPlan, data []complex128, forward bool) {
	for i, j := range p.rev {
		if i < j {
			data[i], data[j] = data[j], data[i]
		}
	}
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				w := p.twiddle[k*step]
				if !forward {
					w = complex(real(w), -imag(w))
				}
				a := data[start+k]
				b := data[start+k+half] * w
				data[start+k] = a + b
				data[start+k+half] = a - b
			}
		}
	}
}

// newRef takes New's validation, defaults and FFT plans.
func newRef(cfg Config) (*refKernel, error) {
	k, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &refKernel{cfg: k.cfg, n: k.n, planX: k.planX, planY: k.planY, planZ: k.planZ}, nil
}

func (k *refKernel) RunRank(r *mpi.Rank) {
	p := r.Size()
	rank := r.Rank()
	if k.cfg.NZ%p != 0 || k.cfg.NX%p != 0 {
		r.Abort("ft: nx=%d and nz=%d must be divisible by p=%d", k.cfg.NX, k.cfg.NZ, p)
	}
	if k.dz == nil {
		k.dz = make([][]complex128, p)
		k.dx = make([][]complex128, p)
		k.freq = make([][]complex128, p)
		k.twid = make([][]float64, p)
		k.Checksums = make([]complex128, k.cfg.Iters)
	}
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	lz := nz / p
	lx := nx / p
	local := lz * ny * nx

	// --- Initialisation: NPB LCG data, global element order. ---
	r.PhaseEnter("ft.init")
	dz := make([]complex128, local)
	z0 := rank * lz
	seed := npb.SeedAt(k.cfg.Seed, npb.LCGMultiplier, int64(2*z0*ny*nx))
	for i := range dz {
		re := npb.Randlc(&seed, npb.LCGMultiplier)
		im := npb.Randlc(&seed, npb.LCGMultiplier)
		dz[i] = complex(re, im)
	}
	k.dz[rank] = dz
	r.Compute(initOpsPerElem*float64(local), float64(local))

	// Spatial energy for the Parseval check.
	var se float64
	for _, v := range dz {
		se += real(v)*real(v) + imag(v)*imag(v)
	}
	r.Compute(4*float64(local), float64(local))
	seTotal := mpi.Allreduce(r, se, 8, func(a, b float64) float64 { return a + b })
	k.SpatialEnergy = seTotal
	r.PhaseExit("ft.init")

	// --- Forward 3-D FFT. ---
	r.PhaseEnter("ft.forward")
	k.fftX(r, rank, true)
	k.fftY(r, rank, true)
	k.transposeZX(r, rank)
	k.fftZ(r, rank, true)
	r.PhaseExit("ft.forward")

	// Frequency energy (Parseval: Σ|ũ|² = n·Σ|u|²).
	var fe float64
	for _, v := range k.dx[rank] {
		fe += real(v)*real(v) + imag(v)*imag(v)
	}
	r.Compute(4*float64(local), float64(local))
	k.FreqEnergy = mpi.Allreduce(r, fe, 8, func(a, b float64) float64 { return a + b }) / float64(k.n)

	// Keep the frequency-domain state and the evolution factors.
	freq := make([]complex128, local)
	copy(freq, k.dx[rank])
	k.freq[rank] = freq
	k.initTwiddle(r, rank, lx)

	// --- Iterations: evolve in frequency space, inverse FFT, checksum. ---
	for t := 0; t < k.cfg.Iters; t++ {
		r.PhaseEnter("ft.evolve")
		f := k.freq[rank]
		tw := k.twid[rank]
		for i := range f {
			f[i] = complex(real(f[i])*tw[i], imag(f[i])*tw[i])
		}
		r.Compute(evolveOpsPerElem*float64(local), 2*float64(local))
		r.PhaseExit("ft.evolve")

		r.PhaseEnter("ft.inverse")
		// Work on a copy so the frequency state evolves cumulatively.
		scratch := make([]complex128, local)
		copy(scratch, f)
		k.dx[rank] = scratch
		r.Compute(copyOpsPerElem*float64(local), 2*float64(local))

		k.fftZ(r, rank, false)
		k.transposeXZ(r, rank)
		k.fftY(r, rank, false)
		k.fftX(r, rank, false)
		// Normalise the inverse transform: 1/n once per element.
		inv := 1 / float64(k.n)
		dzr := k.dz[rank]
		for i := range dzr {
			dzr[i] = complex(real(dzr[i])*inv, imag(dzr[i])*inv)
		}
		r.Compute(2*float64(local), float64(local))
		r.PhaseExit("ft.inverse")

		r.PhaseEnter("ft.checksum")
		k.checksum(r, rank, t, lz)
		r.PhaseExit("ft.checksum")
	}
}

// fftX transforms along x: contiguous rows of layout Z.
func (k *refKernel) fftX(r *mpi.Rank, rank int, forward bool) {
	nx, ny := k.cfg.NX, k.cfg.NY
	dz := k.dz[rank]
	rows := len(dz) / nx
	for row := 0; row < rows; row++ {
		refTransform(k.planX, dz[row*nx:(row+1)*nx], forward)
	}
	_ = ny
	r.Compute(float64(rows)*fftOps(nx), 2*float64(len(dz)))
}

// fftY transforms along y: stride-nx pencils of layout Z, gathered into a
// scratch pencil.
func (k *refKernel) fftY(r *mpi.Rank, rank int, forward bool) {
	nx, ny := k.cfg.NX, k.cfg.NY
	dz := k.dz[rank]
	lz := len(dz) / (nx * ny)
	pencil := make([]complex128, ny)
	for z := 0; z < lz; z++ {
		base := z * ny * nx
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				pencil[y] = dz[base+y*nx+x]
			}
			refTransform(k.planY, pencil, forward)
			for y := 0; y < ny; y++ {
				dz[base+y*nx+x] = pencil[y]
			}
		}
	}
	r.Compute(float64(lz*nx)*fftOps(ny), 4*float64(len(dz)))
}

// fftZ transforms along z: contiguous pencils of layout X.
func (k *refKernel) fftZ(r *mpi.Rank, rank int, forward bool) {
	nz := k.cfg.NZ
	dx := k.dx[rank]
	pencils := len(dx) / nz
	for i := 0; i < pencils; i++ {
		refTransform(k.planZ, dx[i*nz:(i+1)*nz], forward)
	}
	r.Compute(float64(pencils)*fftOps(nz), 2*float64(len(dx)))
}

// transposeZX redistributes layout Z → layout X with a pairwise-exchange
// all-to-all. Rank q receives, from every rank s, the block covering
// x ∈ q's range and z ∈ s's range.
func (k *refKernel) transposeZX(r *mpi.Rank, rank int) {
	p := r.Size()
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	lz, lx := nz/p, nx/p
	dz := k.dz[rank]

	blocks := make([][]complex128, p)
	for q := 0; q < p; q++ {
		blk := make([]complex128, lx*ny*lz)
		x0 := q * lx
		i := 0
		for xl := 0; xl < lx; xl++ {
			for y := 0; y < ny; y++ {
				for zl := 0; zl < lz; zl++ {
					blk[i] = dz[(zl*ny+y)*nx+x0+xl]
					i++
				}
			}
		}
		blocks[q] = blk
	}
	r.Compute(packOpsPerElem*float64(len(dz)), float64(len(dz)))

	recv := mpi.Alltoall(r, blocks, units.Bytes(bytesPerElem*lx*ny*lz))

	dx := make([]complex128, lx*ny*nz)
	for s := 0; s < p; s++ {
		z0 := s * lz
		blk := recv[s]
		i := 0
		for xl := 0; xl < lx; xl++ {
			for y := 0; y < ny; y++ {
				for zl := 0; zl < lz; zl++ {
					dx[(xl*ny+y)*nz+z0+zl] = blk[i]
					i++
				}
			}
		}
	}
	k.dx[rank] = dx
	r.Compute(packOpsPerElem*float64(len(dx)), float64(len(dx)))
}

// transposeXZ redistributes layout X → layout Z (the inverse exchange).
func (k *refKernel) transposeXZ(r *mpi.Rank, rank int) {
	p := r.Size()
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	lz, lx := nz/p, nx/p
	dx := k.dx[rank]

	blocks := make([][]complex128, p)
	for q := 0; q < p; q++ {
		blk := make([]complex128, lx*ny*lz)
		z0 := q * lz
		i := 0
		for zl := 0; zl < lz; zl++ {
			for y := 0; y < ny; y++ {
				for xl := 0; xl < lx; xl++ {
					blk[i] = dx[(xl*ny+y)*nz+z0+zl]
					i++
				}
			}
		}
		blocks[q] = blk
	}
	r.Compute(packOpsPerElem*float64(len(dx)), float64(len(dx)))

	recv := mpi.Alltoall(r, blocks, units.Bytes(bytesPerElem*lx*ny*lz))

	dz := make([]complex128, lz*ny*nx)
	for s := 0; s < p; s++ {
		x0 := s * lx
		blk := recv[s]
		i := 0
		for zl := 0; zl < lz; zl++ {
			for y := 0; y < ny; y++ {
				for xl := 0; xl < lx; xl++ {
					dz[(zl*ny+y)*nx+x0+xl] = blk[i]
					i++
				}
			}
		}
	}
	k.dz[rank] = dz
	r.Compute(packOpsPerElem*float64(len(dz)), float64(len(dz)))
}

// initTwiddle computes the evolution factors exp(−4π²η·|k̄|²) for the
// rank's layout-X frequency elements.
func (k *refKernel) initTwiddle(r *mpi.Rank, rank, lx int) {
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	x0 := rank * lx
	tw := make([]float64, lx*ny*nz)
	fold := func(i, n int) float64 {
		if i <= n/2 {
			return float64(i)
		}
		return float64(i - n)
	}
	i := 0
	for xl := 0; xl < lx; xl++ {
		kx := fold(x0+xl, nx)
		for y := 0; y < ny; y++ {
			ky := fold(y, ny)
			for z := 0; z < nz; z++ {
				kz := fold(z, nz)
				tw[i] = math.Exp(-4 * math.Pi * math.Pi * eta * (kx*kx + ky*ky + kz*kz))
				i++
			}
		}
	}
	k.twid[rank] = tw
	r.Compute(12*float64(len(tw)), float64(len(tw)))
}

// checksum samples 1024 deterministic grid points of the layout-Z spatial
// result and sums them across ranks.
func (k *refKernel) checksum(r *mpi.Rank, rank, iter, lz int) {
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	z0 := rank * lz
	var local complex128
	samples := 0
	for j := 1; j <= checksumSamples; j++ {
		x := (3 * j) % nx
		y := (5 * j) % ny
		z := (7 * j) % nz
		if z >= z0 && z < z0+lz {
			local += k.dz[rank][((z-z0)*ny+y)*nx+x]
			samples++
		}
	}
	r.Compute(checksumOps*float64(samples), float64(samples))
	sum := mpi.Allreduce(r, []float64{real(local), imag(local)}, 16,
		func(a, b []float64) []float64 { return []float64{a[0] + b[0], a[1] + b[1]} })
	k.Checksums[iter] = complex(sum[0], sum[1])
}
