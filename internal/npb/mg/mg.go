// Package mg implements a multigrid V-cycle kernel in the spirit of NPB
// MG: an iterative Poisson solve on an N³ periodic grid with Jacobi
// smoothing, restriction and prolongation over a grid hierarchy. The
// domain is slab-decomposed along z, so every smoothing or residual sweep
// is preceded by a two-neighbour halo exchange — the nearest-neighbour
// communication pattern that complements the all-to-all (FT), team
// reduction (CG) and alltoallv (IS) patterns in the benchmark set.
package mg

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/units"
)

// Operation-count conventions (mirrored by internal/app's MG closed
// forms).
const (
	smoothOpsPerPoint   = 10.0
	residualOpsPerPoint = 9.0
	restrictOpsPerPoint = 9.0
	prolongOpsPerPoint  = 5.0
	haloTagBase         = 70000
)

// Config sizes an MG instance.
type Config struct {
	// Size is N: the grid is N×N×N, N a power of two.
	Size int
	// Cycles is the number of V-cycles.
	Cycles int
	// Depth limits coarsening (0 = as deep as the decomposition
	// allows). Serial/parallel comparisons must pin the same depth.
	Depth int
	Seed  float64
}

// Classes returns NPB-flavoured sizes.
func Classes() map[string]Config {
	return map[string]Config{
		"T": {Size: 16, Cycles: 2},
		"S": {Size: 32, Cycles: 4},
		"W": {Size: 64, Cycles: 4},
		"A": {Size: 128, Cycles: 4},
		"B": {Size: 256, Cycles: 10},
	}
}

// level holds one rank's slab of one grid level (with two ghost planes).
type level struct {
	s      int // global edge length
	planes int // local z-planes (without ghosts)
	u      []float64
	v      []float64
	r      []float64
}

// Kernel is one MG run instance. Create with New, use once.
type Kernel struct {
	cfg Config

	// Residual norms per V-cycle (written identically by all ranks).
	Norms       []float64
	InitialNorm float64
}

// New validates the configuration and prepares a run instance.
func New(cfg Config) (*Kernel, error) {
	if cfg.Size < 8 || cfg.Size&(cfg.Size-1) != 0 {
		return nil, fmt.Errorf("mg: size %d must be a power of two ≥ 8", cfg.Size)
	}
	if cfg.Cycles < 1 {
		return nil, fmt.Errorf("mg: cycles %d < 1", cfg.Cycles)
	}
	var err error
	if cfg.Seed, err = npb.ResolveSeed(cfg.Seed); err != nil {
		return nil, fmt.Errorf("mg: %w", err)
	}
	return &Kernel{cfg: cfg}, nil
}

// Name implements npb.Kernel.
func (k *Kernel) Name() string { return "MG" }

// N implements npb.Kernel: total grid points.
func (k *Kernel) N() float64 {
	s := float64(k.cfg.Size)
	return s * s * s
}

// Alpha implements npb.Kernel with app.MG's α (paper Table 2).
func (k *Kernel) Alpha() float64 { return app.MG(0).Alpha }

// MaxDepth returns the deepest usable hierarchy for grid size N on p
// ranks: every level needs ≥ 2 local planes and ≥ 4 global edge length.
func MaxDepth(size, p int) int {
	depth := 0
	for s := size; s >= 8 && s/2 >= 2*p; s /= 2 {
		depth++
	}
	return max(depth, 1)
}

// idx addresses (z, y, x) in a slab with ghost planes: z ∈ [-1, planes].
func (lv *level) idx(z, y, x int) int {
	return ((z+1)*lv.s+y)*lv.s + x
}

// RunRank implements npb.Kernel.
func (k *Kernel) RunRank(r *mpi.Rank) {
	p := r.Size()
	rank := r.Rank()
	size := k.cfg.Size
	if size%p != 0 || size/p < 2 {
		r.Abort("mg: size %d needs ≥2 planes per rank on p=%d", size, p)
	}
	depth := k.cfg.Depth
	if depth == 0 {
		depth = MaxDepth(size, p)
	}
	if depth > MaxDepth(size, p) {
		r.Abort("mg: depth %d exceeds max %d for size %d on p=%d", depth, MaxDepth(size, p), size, p)
	}

	// --- Build hierarchy. ---
	levels := make([]*level, depth)
	s := size
	for l := 0; l < depth; l++ {
		lv := &level{s: s, planes: s / p}
		vol := (lv.planes + 2) * s * s
		lv.u = make([]float64, vol)
		lv.v = make([]float64, vol)
		lv.r = make([]float64, vol)
		levels[l] = lv
		s /= 2
	}

	// --- Source term: NPB-style ±1 spikes at LCG-chosen points. ---
	r.PhaseEnter("mg.init")
	fine := levels[0]
	z0 := rank * fine.planes
	seed := k.cfg.Seed
	nSpikes := 20
	for i := 0; i < nSpikes; i++ {
		gx := int(float64(size) * npb.Randlc(&seed, npb.LCGMultiplier))
		gy := int(float64(size) * npb.Randlc(&seed, npb.LCGMultiplier))
		gz := int(float64(size) * npb.Randlc(&seed, npb.LCGMultiplier))
		val := 1.0
		if i%2 == 1 {
			val = -1.0
		}
		if gz >= z0 && gz < z0+fine.planes {
			fine.v[fine.idx(gz-z0, gy, gx)] = val
		}
	}
	r.Compute(30*float64(nSpikes), float64(nSpikes))
	r.PhaseExit("mg.init")

	k.InitialNorm = k.norm(r, fine, fine.v)
	if rank == 0 {
		k.Norms = make([]float64, 0, k.cfg.Cycles)
	}

	// --- V-cycles. ---
	for c := 0; c < k.cfg.Cycles; c++ {
		r.PhaseEnter("mg.vcycle")
		k.vcycle(r, levels, 0)
		r.PhaseExit("mg.vcycle")

		r.PhaseEnter("mg.residual")
		k.residual(r, fine)
		nrm := k.norm(r, fine, fine.r)
		if rank == 0 {
			k.Norms = append(k.Norms, nrm)
		}
		r.PhaseExit("mg.residual")
	}
}

// vcycle recursively smooths, restricts, recurses and corrects.
func (k *Kernel) vcycle(r *mpi.Rank, levels []*level, l int) {
	lv := levels[l]
	k.smooth(r, lv, 2)
	if l == len(levels)-1 {
		k.smooth(r, lv, 2)
		return
	}
	k.residual(r, lv)
	k.restrict(r, lv, levels[l+1])
	k.vcycle(r, levels, l+1)
	k.prolong(r, levels[l+1], lv)
	k.smooth(r, lv, 1)
}

// exchangeHalo swaps boundary planes with the z neighbours (periodic).
func (k *Kernel) exchangeHalo(r *mpi.Rank, lv *level, field []float64) {
	p := r.Size()
	s := lv.s
	planeLen := s * s
	if p == 1 {
		// Periodic wrap within the local slab.
		copy(field[lv.idx(-1, 0, 0):lv.idx(-1, 0, 0)+planeLen], field[lv.idx(lv.planes-1, 0, 0):lv.idx(lv.planes-1, 0, 0)+planeLen])
		copy(field[lv.idx(lv.planes, 0, 0):lv.idx(lv.planes, 0, 0)+planeLen], field[lv.idx(0, 0, 0):lv.idx(0, 0, 0)+planeLen])
		r.Compute(float64(2*planeLen), float64(2*planeLen))
		return
	}
	up := (r.Rank() + 1) % p
	down := (r.Rank() - 1 + p) % p
	// Top and bottom plane: one escaping pair, sent by pointer (mpi.Message).
	planes := [2][]float64{make([]float64, planeLen), make([]float64, planeLen)}
	copy(planes[0], field[lv.idx(lv.planes-1, 0, 0):lv.idx(lv.planes-1, 0, 0)+planeLen])
	copy(planes[1], field[lv.idx(0, 0, 0):lv.idx(0, 0, 0)+planeLen])
	r.Compute(float64(2*planeLen), float64(2*planeLen))

	tag := haloTagBase + lv.s
	// Send my top plane up, receive my lower ghost from below.
	msg := r.SendRecv(up, tag, &planes[0], units.Bytes(8*planeLen), down, tag)
	copy(field[lv.idx(-1, 0, 0):lv.idx(-1, 0, 0)+planeLen], *msg.Data.(*[]float64))
	// Send my bottom plane down, receive my upper ghost from above.
	msg = r.SendRecv(down, tag+1, &planes[1], units.Bytes(8*planeLen), up, tag+1)
	copy(field[lv.idx(lv.planes, 0, 0):lv.idx(lv.planes, 0, 0)+planeLen], *msg.Data.(*[]float64))
	r.Compute(float64(2*planeLen), float64(2*planeLen))
}

// smooth runs sweeps of damped Jacobi on lv.u (7-point stencil).
func (k *Kernel) smooth(r *mpi.Rank, lv *level, sweeps int) {
	s := lv.s
	const omega = 0.8
	h2 := 1.0 / float64(s*s)
	for sw := 0; sw < sweeps; sw++ {
		k.exchangeHalo(r, lv, lv.u)
		next := make([]float64, len(lv.u))
		copy(next, lv.u)
		for z := 0; z < lv.planes; z++ {
			for y := 0; y < s; y++ {
				ym := (y - 1 + s) % s
				yp := (y + 1) % s
				for x := 0; x < s; x++ {
					xm := (x - 1 + s) % s
					xp := (x + 1) % s
					sum := lv.u[lv.idx(z, y, xm)] + lv.u[lv.idx(z, y, xp)] +
						lv.u[lv.idx(z, ym, x)] + lv.u[lv.idx(z, yp, x)] +
						lv.u[lv.idx(z-1, y, x)] + lv.u[lv.idx(z+1, y, x)]
					jac := (sum - h2*lv.v[lv.idx(z, y, x)]) / 6
					next[lv.idx(z, y, x)] = (1-omega)*lv.u[lv.idx(z, y, x)] + omega*jac
				}
			}
		}
		lv.u = next
		pts := float64(lv.planes * s * s)
		r.Compute(smoothOpsPerPoint*pts, 2*pts)
	}
}

// residual computes lv.r = lv.v − A·lv.u.
func (k *Kernel) residual(r *mpi.Rank, lv *level) {
	s := lv.s
	h2inv := float64(s * s)
	k.exchangeHalo(r, lv, lv.u)
	for z := 0; z < lv.planes; z++ {
		for y := 0; y < s; y++ {
			ym := (y - 1 + s) % s
			yp := (y + 1) % s
			for x := 0; x < s; x++ {
				xm := (x - 1 + s) % s
				xp := (x + 1) % s
				lap := (lv.u[lv.idx(z, y, xm)] + lv.u[lv.idx(z, y, xp)] +
					lv.u[lv.idx(z, ym, x)] + lv.u[lv.idx(z, yp, x)] +
					lv.u[lv.idx(z-1, y, x)] + lv.u[lv.idx(z+1, y, x)] -
					6*lv.u[lv.idx(z, y, x)]) * h2inv
				lv.r[lv.idx(z, y, x)] = lv.v[lv.idx(z, y, x)] - lap
			}
		}
	}
	pts := float64(lv.planes * s * s)
	r.Compute(residualOpsPerPoint*pts, 2*pts)
}

// restrict full-weights lv.r down to the coarse level's source term and
// clears the coarse solution.
func (k *Kernel) restrict(r *mpi.Rank, fine, coarse *level) {
	cs := coarse.s
	for z := 0; z < coarse.planes; z++ {
		for y := 0; y < cs; y++ {
			for x := 0; x < cs; x++ {
				var sum float64
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							sum += fine.r[fine.idx(2*z+dz, 2*y+dy, 2*x+dx)]
						}
					}
				}
				coarse.v[coarse.idx(z, y, x)] = sum / 8
				coarse.u[coarse.idx(z, y, x)] = 0
			}
		}
	}
	pts := float64(coarse.planes * cs * cs)
	r.Compute(restrictOpsPerPoint*pts, 3*pts)
}

// prolong injects the coarse correction back into the fine solution.
func (k *Kernel) prolong(r *mpi.Rank, coarse, fine *level) {
	cs := coarse.s
	for z := 0; z < coarse.planes; z++ {
		for y := 0; y < cs; y++ {
			for x := 0; x < cs; x++ {
				corr := coarse.u[coarse.idx(z, y, x)]
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							fine.u[fine.idx(2*z+dz, 2*y+dy, 2*x+dx)] += corr
						}
					}
				}
			}
		}
	}
	pts := float64(coarse.planes * cs * cs)
	r.Compute(prolongOpsPerPoint*pts*8, 2*pts*8)
}

// norm computes the global RMS of a fine-level field.
func (k *Kernel) norm(r *mpi.Rank, lv *level, field []float64) float64 {
	var sum float64
	s := lv.s
	for z := 0; z < lv.planes; z++ {
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				v := field[lv.idx(z, y, x)]
				sum += v * v
			}
		}
	}
	pts := float64(lv.planes * s * s)
	r.Compute(2*pts, pts)
	total := mpi.Allreduce(r, sum, 8, func(a, b float64) float64 { return a + b })
	return math.Sqrt(total / (float64(s) * float64(s) * float64(s)))
}

// Verify implements npb.Kernel: V-cycles must reduce the residual.
func (k *Kernel) Verify() error {
	if len(k.Norms) != k.cfg.Cycles {
		return fmt.Errorf("mg: recorded %d norms, want %d", len(k.Norms), k.cfg.Cycles)
	}
	if k.InitialNorm <= 0 {
		return fmt.Errorf("mg: degenerate initial residual")
	}
	prev := k.InitialNorm
	for c, nrm := range k.Norms {
		if math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			return fmt.Errorf("mg: norm %d not finite", c)
		}
		if nrm > prev*1.0001 {
			return fmt.Errorf("mg: residual grew at cycle %d: %g → %g", c, prev, nrm)
		}
		prev = nrm
	}
	if last := k.Norms[len(k.Norms)-1]; last > 0.5*k.InitialNorm {
		return fmt.Errorf("mg: residual only fell from %g to %g over %d cycles", k.InitialNorm, last, k.cfg.Cycles)
	}
	return nil
}
