// Package ft implements the NPB FT kernel: the solution of a 3-D partial
// differential equation with forward/inverse FFTs (paper §V.B.1).
//
// The grid is slab-decomposed: layout Z distributes z-planes across ranks
// for the x- and y-direction FFTs; a pairwise-exchange all-to-all
// transposes to layout X (x-pencils) for the z-direction FFTs. One
// transpose runs per inverse transform, so the communication volume per
// iteration is exactly the paper's all-to-all pattern: every rank ships
// n/p elements (minus its own block) in p−1 messages.
//
// The kernel executes real FFTs on real data: Parseval's identity is
// checked after the forward transform, and the per-iteration checksums
// agree between serial and parallel runs to rounding error.
package ft

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/units"
)

// Operation-count constants (mirrored by internal/app's FT closed forms).
const (
	initOpsPerElem   = 22.0 // two LCG draws per complex element
	evolveOpsPerElem = 6.0
	packOpsPerElem   = 2.0
	copyOpsPerElem   = 1.0
	checksumOps      = 10.0
	bytesPerElem     = 16 // complex128
	checksumSamples  = 1024
	eta              = 1e-6 // diffusion coefficient of the PDE
)

// Config sizes an FT instance.
type Config struct {
	NX, NY, NZ int
	Iters      int
	Seed       float64
}

// Classes returns grid sizes in the spirit of the NPB class table,
// scaled to stay laptop-friendly at high rank counts.
func Classes() map[string]Config {
	return map[string]Config{
		"T": {NX: 16, NY: 16, NZ: 16, Iters: 4},
		"S": {NX: 64, NY: 64, NZ: 64, Iters: 6},
		"W": {NX: 128, NY: 64, NZ: 32, Iters: 6},
		"A": {NX: 128, NY: 128, NZ: 64, Iters: 6},
		"B": {NX: 256, NY: 128, NZ: 128, Iters: 10},
	}
}

// Kernel is one FT run instance. Create with New, use once.
type Kernel struct {
	cfg Config
	n   int // total elements

	planX, planY, planZ *fftPlan

	// Verification state.
	SpatialEnergy float64      // Σ|u|² before the forward transform
	FreqEnergy    float64      // Σ|ũ|²/n after it
	Checksums     []complex128 // per-iteration spatial checksums
}

// New validates the configuration and prepares a run instance.
func New(cfg Config) (*Kernel, error) {
	for _, d := range []int{cfg.NX, cfg.NY, cfg.NZ} {
		if d < 2 || d&(d-1) != 0 {
			return nil, fmt.Errorf("ft: dimensions must be powers of two ≥ 2, got %dx%dx%d", cfg.NX, cfg.NY, cfg.NZ)
		}
	}
	if cfg.Iters < 1 {
		return nil, fmt.Errorf("ft: iterations %d < 1", cfg.Iters)
	}
	if cfg.Seed == 0 {
		cfg.Seed = npb.DefaultSeed
	}
	k := &Kernel{cfg: cfg, n: cfg.NX * cfg.NY * cfg.NZ, Checksums: make([]complex128, cfg.Iters)}
	var err error
	if k.planX, err = newPlan(cfg.NX); err != nil {
		return nil, err
	}
	if k.planY, err = newPlan(cfg.NY); err != nil {
		return nil, err
	}
	if k.planZ, err = newPlan(cfg.NZ); err != nil {
		return nil, err
	}
	return k, nil
}

// Name implements npb.Kernel.
func (k *Kernel) Name() string { return "FT" }

// N implements npb.Kernel: total grid points.
func (k *Kernel) N() float64 { return float64(k.n) }

// Alpha implements npb.Kernel (paper §V.B.1).
func (k *Kernel) Alpha() float64 { return 0.86 }

// slab is one rank's share of the grid plus the scratch its transforms
// and transposes reuse. RunRank allocates it once per run; no iteration
// allocates a grid-sized buffer.
type slab struct {
	dz   []complex128 // layout Z: [lz][ny][nx]
	dx   []complex128 // layout X: [lx][ny][nz]
	freq []complex128 // frequency-domain state (layout X), evolved in place
	twid []float64    // evolution factor per element of freq

	// blocks[q] is the outgoing transpose block for rank q, cut from one
	// backing array. The receiver reads it by reference (mpi.Message),
	// so it is rewritten only in the next transpose; an allreduce every
	// rank enters after unpacking separates any two transposes.
	blocks [][]complex128
	pencil []complex128 // one y pencil for fftY
	dev    []float64    // one x row's LCG deviates, two per element
}

func newSlab(p, lx, lz, nx, ny, nz int) *slab {
	local := lz * ny * nx
	pack := make([]complex128, local)
	blocks := make([][]complex128, p)
	bs := local / p
	for q := range blocks {
		blocks[q] = pack[q*bs : (q+1)*bs]
	}
	return &slab{
		dz:     make([]complex128, local),
		dx:     make([]complex128, lx*ny*nz),
		freq:   make([]complex128, local),
		twid:   make([]float64, local),
		blocks: blocks,
		pencil: make([]complex128, ny),
		dev:    make([]float64, 2*nx),
	}
}

// RunRank implements npb.Kernel.
func (k *Kernel) RunRank(r *mpi.Rank) {
	p := r.Size()
	rank := r.Rank()
	if k.cfg.NZ%p != 0 || k.cfg.NX%p != 0 {
		r.Abort("ft: nx=%d and nz=%d must be divisible by p=%d", k.cfg.NX, k.cfg.NZ, p)
	}
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	lz := nz / p
	lx := nx / p
	local := lz * ny * nx
	s := newSlab(p, lx, lz, nx, ny, nz)

	// --- Initialisation: NPB LCG data, global element order. ---
	r.PhaseEnter("ft.init")
	z0 := rank * lz
	seed := npb.SeedAt(k.cfg.Seed, npb.LCGMultiplier, int64(2*z0*ny*nx))
	for row := 0; row < local; row += nx {
		npb.Vranlc(&seed, npb.LCGMultiplier, s.dev)
		for i := range nx {
			s.dz[row+i] = complex(s.dev[2*i], s.dev[2*i+1])
		}
	}
	r.Compute(initOpsPerElem*float64(local), float64(local))

	// Spatial energy for the Parseval check.
	var se float64
	for _, v := range s.dz {
		se += real(v)*real(v) + imag(v)*imag(v)
	}
	r.Compute(4*float64(local), float64(local))
	seTotal := mpi.Allreduce(r, se, 8, func(a, b float64) float64 { return a + b })
	k.SpatialEnergy = seTotal
	r.PhaseExit("ft.init")

	// --- Forward 3-D FFT. ---
	r.PhaseEnter("ft.forward")
	k.fftX(r, s, true)
	k.fftY(r, s, true)
	k.transposeZX(r, s)
	k.fftZ(r, s, true)
	r.PhaseExit("ft.forward")

	// Frequency energy (Parseval: Σ|ũ|² = n·Σ|u|²).
	var fe float64
	for _, v := range s.dx {
		fe += real(v)*real(v) + imag(v)*imag(v)
	}
	r.Compute(4*float64(local), float64(local))
	k.FreqEnergy = mpi.Allreduce(r, fe, 8, func(a, b float64) float64 { return a + b }) / float64(k.n)

	// Keep the frequency-domain state and the evolution factors.
	copy(s.freq, s.dx)
	k.initTwiddle(r, s, rank, lx)

	// --- Iterations: evolve in frequency space, inverse FFT, checksum. ---
	for t := 0; t < k.cfg.Iters; t++ {
		r.PhaseEnter("ft.evolve")
		f, tw := s.freq, s.twid
		for i := range f {
			f[i] = complex(real(f[i])*tw[i], imag(f[i])*tw[i])
		}
		r.Compute(evolveOpsPerElem*float64(local), 2*float64(local))
		r.PhaseExit("ft.evolve")

		r.PhaseEnter("ft.inverse")
		// Work on a copy so the frequency state evolves cumulatively.
		copy(s.dx, f)
		r.Compute(copyOpsPerElem*float64(local), 2*float64(local))

		k.fftZ(r, s, false)
		k.transposeXZ(r, s)
		k.fftY(r, s, false)
		k.fftX(r, s, false)
		// Normalise the inverse transform: 1/n once per element.
		inv := 1 / float64(k.n)
		dz := s.dz
		for i := range dz {
			dz[i] = complex(real(dz[i])*inv, imag(dz[i])*inv)
		}
		r.Compute(2*float64(local), float64(local))
		r.PhaseExit("ft.inverse")

		r.PhaseEnter("ft.checksum")
		k.checksum(r, s, rank, t, lz)
		r.PhaseExit("ft.checksum")
	}
}

// fftX transforms along x: contiguous rows of layout Z.
func (k *Kernel) fftX(r *mpi.Rank, s *slab, forward bool) {
	nx := k.cfg.NX
	dz := s.dz
	rows := len(dz) / nx
	for row := 0; row < rows; row++ {
		k.planX.transform(dz[row*nx:(row+1)*nx], forward)
	}
	r.Compute(float64(rows)*fftOps(nx), 2*float64(len(dz)))
}

// fftY transforms along y: stride-nx pencils of layout Z, gathered into
// the slab's pencil.
func (k *Kernel) fftY(r *mpi.Rank, s *slab, forward bool) {
	nx, ny := k.cfg.NX, k.cfg.NY
	dz, pencil := s.dz, s.pencil
	lz := len(dz) / (nx * ny)
	for z := 0; z < lz; z++ {
		base := z * ny * nx
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				pencil[y] = dz[base+y*nx+x]
			}
			k.planY.transform(pencil, forward)
			for y := 0; y < ny; y++ {
				dz[base+y*nx+x] = pencil[y]
			}
		}
	}
	r.Compute(float64(lz*nx)*fftOps(ny), 4*float64(len(dz)))
}

// fftZ transforms along z: contiguous pencils of layout X.
func (k *Kernel) fftZ(r *mpi.Rank, s *slab, forward bool) {
	nz := k.cfg.NZ
	dx := s.dx
	pencils := len(dx) / nz
	for i := 0; i < pencils; i++ {
		k.planZ.transform(dx[i*nz:(i+1)*nz], forward)
	}
	r.Compute(float64(pencils)*fftOps(nz), 2*float64(len(dx)))
}

// transposeZX redistributes layout Z → layout X with a pairwise-exchange
// all-to-all. Rank q receives, from every rank s, the block covering
// x ∈ q's range and z ∈ s's range.
func (k *Kernel) transposeZX(r *mpi.Rank, s *slab) {
	p := r.Size()
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	lz, lx := nz/p, nx/p
	dz, dx := s.dz, s.dx

	for q, blk := range s.blocks {
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
	}
	r.Compute(packOpsPerElem*float64(len(dz)), float64(len(dz)))

	recv := mpi.Alltoall(r, s.blocks, units.Bytes(bytesPerElem*lx*ny*lz))

	for src, blk := range recv {
		z0 := src * lz
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
	r.Compute(packOpsPerElem*float64(len(dx)), float64(len(dx)))
}

// transposeXZ redistributes layout X → layout Z (the inverse exchange).
func (k *Kernel) transposeXZ(r *mpi.Rank, s *slab) {
	p := r.Size()
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	lz, lx := nz/p, nx/p
	dz, dx := s.dz, s.dx

	for q, blk := range s.blocks {
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
	}
	r.Compute(packOpsPerElem*float64(len(dx)), float64(len(dx)))

	recv := mpi.Alltoall(r, s.blocks, units.Bytes(bytesPerElem*lx*ny*lz))

	for src, blk := range recv {
		x0 := src * lx
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
	r.Compute(packOpsPerElem*float64(len(dz)), float64(len(dz)))
}

// initTwiddle computes the evolution factors exp(−4π²η·|k̄|²) for the
// rank's layout-X frequency elements.
func (k *Kernel) initTwiddle(r *mpi.Rank, s *slab, rank, lx int) {
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	x0 := rank * lx
	tw := s.twid
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
	r.Compute(12*float64(len(tw)), float64(len(tw)))
}

// checksum samples 1024 deterministic grid points of the layout-Z spatial
// result and sums them across ranks.
func (k *Kernel) checksum(r *mpi.Rank, s *slab, rank, iter, lz int) {
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	z0 := rank * lz
	var local complex128
	samples := 0
	for j := 1; j <= checksumSamples; j++ {
		x := (3 * j) % nx
		y := (5 * j) % ny
		z := (7 * j) % nz
		if z >= z0 && z < z0+lz {
			local += s.dz[((z-z0)*ny+y)*nx+x]
			samples++
		}
	}
	r.Compute(checksumOps*float64(samples), float64(samples))
	sum := mpi.Allreduce(r, []float64{real(local), imag(local)}, 16,
		func(a, b []float64) []float64 { return []float64{a[0] + b[0], a[1] + b[1]} })
	k.Checksums[iter] = complex(sum[0], sum[1])
}

// Verify implements npb.Kernel.
func (k *Kernel) Verify() error {
	// Parseval: Σ|ũ|²/n must equal Σ|u|².
	if k.SpatialEnergy <= 0 {
		return fmt.Errorf("ft: degenerate spatial energy")
	}
	rel := math.Abs(k.FreqEnergy-k.SpatialEnergy) / k.SpatialEnergy
	if rel > 1e-9 {
		return fmt.Errorf("ft: Parseval violated: rel. error %.3g", rel)
	}
	// The evolution is a contraction (all factors ≤ 1), so checksum
	// magnitudes must stay bounded by the initial grid mass and be
	// finite.
	for t, c := range k.Checksums {
		if cmplx.IsNaN(c) || cmplx.IsInf(c) {
			return fmt.Errorf("ft: checksum %d is not finite", t)
		}
		if cmplx.Abs(c) > float64(checksumSamples)*2 {
			return fmt.Errorf("ft: checksum %d magnitude %.3g implausible", t, cmplx.Abs(c))
		}
	}
	return nil
}
