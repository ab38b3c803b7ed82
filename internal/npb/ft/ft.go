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

	"repro/internal/app"
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

	// decay[s] is the evolution factor exp(−4π²η·s) for the squared
	// wavenumber s = kx²+ky²+kz², exact in integers; sqX, sqY and sqZ
	// hold each axis's folded squares.
	decay         []float64
	sqX, sqY, sqZ []int

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
	var err error
	if cfg.Seed, err = npb.ResolveSeed(cfg.Seed); err != nil {
		return nil, fmt.Errorf("ft: %w", err)
	}
	k := &Kernel{cfg: cfg, n: cfg.NX * cfg.NY * cfg.NZ, Checksums: make([]complex128, cfg.Iters)}
	if k.planX, err = newPlan(cfg.NX); err != nil {
		return nil, err
	}
	if k.planY, err = newPlan(cfg.NY); err != nil {
		return nil, err
	}
	if k.planZ, err = newPlan(cfg.NZ); err != nil {
		return nil, err
	}
	k.sqX, k.sqY, k.sqZ = foldedSquares(cfg.NX), foldedSquares(cfg.NY), foldedSquares(cfg.NZ)
	k.decay = make([]float64, k.sqX[cfg.NX/2]+k.sqY[cfg.NY/2]+k.sqZ[cfg.NZ/2]+1)
	for s := range k.decay {
		k.decay[s] = math.Exp(-4 * math.Pi * math.Pi * eta * float64(s))
	}
	return k, nil
}

// foldedSquares returns k² for each index of an n-point axis, where the
// wavenumber k folds indices above n/2 to negative frequencies, so
// |k| = min(i, n−i).
func foldedSquares(n int) []int {
	sq := make([]int, n)
	for i := range sq {
		k := min(i, n-i)
		sq[i] = k * k
	}
	return sq
}

// Name implements npb.Kernel.
func (k *Kernel) Name() string { return "FT" }

// N implements npb.Kernel: total grid points.
func (k *Kernel) N() float64 { return float64(k.n) }

// Alpha implements npb.Kernel with app.FT's α (paper Table 2).
func (k *Kernel) Alpha() float64 { return app.FT(0).Alpha }

// tileWidth is the number of z pencils the inverse z-FFT transforms
// before scattering them into the transpose blocks: the pencils share
// y and have consecutive x, so each z writes one run of tileWidth
// adjacent block elements.
const tileWidth = 8

// slab is one rank's share of the grid plus the scratch its transforms
// and transposes reuse. RunRank allocates it once per run; no iteration
// allocates a grid-sized buffer.
type slab struct {
	dz   []complex128 // layout Z: [lz][ny][nx], the spatial grid
	freq []complex128 // layout X: [lx][ny][nz], the frequency state, evolved in place

	// blocks[q] is the outgoing transpose block for rank q, cut from one
	// backing array. The receiver reads it by reference (mpi.Message),
	// so it is rewritten only in the next transpose; an allreduce every
	// rank enters after unpacking separates any two transposes.
	blocks [][]complex128
	tile   []complex128 // ≤ tileWidth z pencils of the inverse z-FFT
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
		freq:   make([]complex128, local),
		blocks: blocks,
		tile:   make([]complex128, min(tileWidth, lx)*nz),
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
	k.fftZ(r, s)
	r.PhaseExit("ft.forward")

	// Frequency energy (Parseval: Σ|ũ|² = n·Σ|u|²).
	var fe float64
	for _, v := range s.freq {
		fe += real(v)*real(v) + imag(v)*imag(v)
	}
	r.Compute(4*float64(local), float64(local))
	k.FreqEnergy = mpi.Allreduce(r, fe, 8, func(a, b float64) float64 { return a + b }) / float64(k.n)

	// The evolution factors come from k.decay; this charges computing
	// one per local frequency element, as NPB does.
	r.Compute(12*float64(local), float64(local))

	// --- Iterations: evolve in frequency space, inverse FFT, checksum. ---
	for t := 0; t < k.cfg.Iters; t++ {
		r.PhaseEnter("ft.evolve")
		k.evolve(s.freq, rank*lx, lx)
		r.Compute(evolveOpsPerElem*float64(local), 2*float64(local))
		r.PhaseExit("ft.evolve")

		r.PhaseEnter("ft.inverse")
		// The z-FFT works on copies of the frequency state's pencils so
		// the state evolves cumulatively.
		r.Compute(copyOpsPerElem*float64(local), 2*float64(local))
		k.inverseZ(r, s)
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

// fftY transforms along y: the ny×nx plane of each local z, one
// butterfly across whole x rows at a time.
func (k *Kernel) fftY(r *mpi.Rank, s *slab, forward bool) {
	nx, ny := k.cfg.NX, k.cfg.NY
	dz := s.dz
	plane := nx * ny
	lz := len(dz) / plane
	for z := 0; z < lz; z++ {
		k.planY.transformRows(dz[z*plane:(z+1)*plane], nx, forward)
	}
	r.Compute(float64(lz*nx)*fftOps(ny), 4*float64(len(dz)))
}

// fftZ transforms the frequency state along z: its contiguous pencils.
func (k *Kernel) fftZ(r *mpi.Rank, s *slab) {
	nz := k.cfg.NZ
	freq := s.freq
	pencils := len(freq) / nz
	for i := 0; i < pencils; i++ {
		k.planZ.transform(freq[i*nz:(i+1)*nz], true)
	}
	r.Compute(float64(pencils)*fftOps(nz), 2*float64(len(freq)))
}

// inverseZ is the inverse z-FFT fused with transposeXZ's pack: it
// copies the frequency state's pencils into the tile, transforms them
// there and scatters them into the outgoing blocks, leaving the state
// untouched. Its charges are the copy's (made by the caller), the
// z-FFT's and the pack's.
func (k *Kernel) inverseZ(r *mpi.Rank, s *slab) {
	p := r.Size()
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	lz, lx := nz/p, nx/p
	freq, tile := s.freq, s.tile
	tw := len(tile) / nz
	for y := 0; y < ny; y++ {
		for x0 := 0; x0 < lx; x0 += tw {
			for t := 0; t < tw; t++ {
				pencil := tile[t*nz : (t+1)*nz]
				copy(pencil, freq[((x0+t)*ny+y)*nz:])
				k.planZ.transform(pencil, false)
			}
			// Block q holds z ∈ q's range as [zl][y][xl].
			for z := 0; z < nz; z++ {
				dst := s.blocks[z/lz][((z%lz)*ny+y)*lx+x0:][:tw]
				for t := range dst {
					dst[t] = tile[t*nz+z]
				}
			}
		}
	}
	local := float64(len(freq))
	r.Compute(float64(lx*ny)*fftOps(nz), 2*local)
	r.Compute(packOpsPerElem*local, local)
}

// transposeZX redistributes layout Z → layout X with a pairwise-exchange
// all-to-all, unpacking into the frequency state. Rank q receives, from
// every rank s, the block covering x ∈ q's range and z ∈ s's range.
func (k *Kernel) transposeZX(r *mpi.Rank, s *slab) {
	p := r.Size()
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	lz, lx := nz/p, nx/p
	dz, freq := s.dz, s.freq

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
					freq[(xl*ny+y)*nz+z0+zl] = blk[i]
					i++
				}
			}
		}
	}
	r.Compute(packOpsPerElem*float64(len(freq)), float64(len(freq)))
}

// transposeXZ redistributes layout X → layout Z (the inverse exchange)
// from the blocks inverseZ packed.
func (k *Kernel) transposeXZ(r *mpi.Rank, s *slab) {
	p := r.Size()
	nx, ny, nz := k.cfg.NX, k.cfg.NY, k.cfg.NZ
	lz, lx := nz/p, nx/p
	dz := s.dz

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

// evolve multiplies the layout-X frequency state, x ∈ [x0, x0+lx), by
// its evolution factors exp(−4π²η·|k̄|²).
func (k *Kernel) evolve(freq []complex128, x0, lx int) {
	ny, nz := k.cfg.NY, k.cfg.NZ
	i := 0
	for xl := 0; xl < lx; xl++ {
		for y := 0; y < ny; y++ {
			sxy := k.sqX[x0+xl] + k.sqY[y]
			row := freq[i : i+nz]
			for z, sz := range k.sqZ {
				f := k.decay[sxy+sz]
				row[z] = complex(real(row[z])*f, imag(row[z])*f)
			}
			i += nz
		}
	}
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
	sum := mpi.Allreduce(r, [2]float64{real(local), imag(local)}, 16,
		func(a, b [2]float64) [2]float64 { return [2]float64{a[0] + b[0], a[1] + b[1]} })
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
