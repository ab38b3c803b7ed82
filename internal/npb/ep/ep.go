// Package ep implements the NPB Embarrassingly Parallel kernel: n pairs
// of uniform deviates from the NPB LCG are pushed through the Marsaglia
// polar method to produce Gaussian pairs, which are tallied into ten
// annuli together with the coordinate sums Σx, Σy (paper §V.B.2).
//
// Communication is limited to the closing reductions, so the benchmark's
// iso-energy-efficiency stays ≈ 1 at every scale — the paper's reference
// point for ideal behaviour.
package ep

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/mpi"
	"repro/internal/npb"
)

// Operation-count constants (mirrored by the closed forms in
// internal/app): the per-pair on-chip cost covers two LCG draws, the
// acceptance test and the polar transform amortised over the acceptance
// rate; EP's working set lives in cache, so off-chip traffic is near zero.
const (
	OpsPerPair = 110.0
	OffPerPair = 1e-3
	batchPairs = 1 << 15
	chunkPairs = 1 << 9 // pairs drawn per Vranlc call
	annuli     = 10
)

// Config sizes an EP instance.
type Config struct {
	// LogPairs is the NPB "M" parameter: the run draws 2^LogPairs pairs.
	LogPairs int
	// Seed is the LCG seed, an integer in [1, 2^46); 0 selects the default.
	Seed float64
}

// Classes returns the NPB class table (S and W as published; larger
// classes scaled to remain laptop-friendly are the caller's choice).
func Classes() map[string]Config {
	return map[string]Config{
		"T": {LogPairs: 16}, // tiny, for tests
		"S": {LogPairs: 24},
		"W": {LogPairs: 25},
		"A": {LogPairs: 28},
		"B": {LogPairs: 30},
	}
}

// Kernel is one EP run instance. Create with New, use once.
type Kernel struct {
	cfg   Config
	pairs int64

	// Reduced results (written by every rank; identical by construction).
	TotalSx, TotalSy float64
	TotalAccepted    int64
	Q                [annuli]float64
}

// New validates the configuration and prepares a run instance.
func New(cfg Config) (*Kernel, error) {
	if cfg.LogPairs < 4 || cfg.LogPairs > 36 {
		return nil, fmt.Errorf("ep: LogPairs %d outside [4,36]", cfg.LogPairs)
	}
	var err error
	if cfg.Seed, err = npb.ResolveSeed(cfg.Seed); err != nil {
		return nil, fmt.Errorf("ep: %w", err)
	}
	return &Kernel{cfg: cfg, pairs: 1 << uint(cfg.LogPairs)}, nil
}

// Name implements npb.Kernel.
func (k *Kernel) Name() string { return "EP" }

// N implements npb.Kernel: the model problem size is the pair count.
func (k *Kernel) N() float64 { return float64(k.pairs) }

// Alpha implements npb.Kernel with app.EP's α (paper Table 2).
func (k *Kernel) Alpha() float64 { return app.EP().Alpha }

// RunRank implements npb.Kernel.
func (k *Kernel) RunRank(r *mpi.Rank) {
	p := int64(r.Size())
	rank := int64(r.Rank())
	// Chunk [start, end) of the global pair sequence; each pair consumes
	// two deviates, so rank state starts at LCG step 2·start.
	start := rank * k.pairs / p
	end := (rank + 1) * k.pairs / p
	x := npb.SeedAt(k.cfg.Seed, npb.LCGMultiplier, 2*start)

	r.PhaseEnter("ep.generate")
	var sx, sy float64
	var acc int64
	var counts [annuli]int64
	dev := make([]float64, 2*chunkPairs)
	for done := start; done < end; {
		batch := min(end-done, batchPairs)
		for i := int64(0); i < batch; i += chunkPairs {
			d := dev[:2*min(chunkPairs, batch-i)]
			npb.Vranlc(&x, npb.LCGMultiplier, d)
			for j := 0; j < len(d); j += 2 {
				x1 := 2*d[j] - 1
				x2 := 2*d[j+1] - 1
				t := x1*x1 + x2*x2
				if t <= 1 {
					f := math.Sqrt(-2 * math.Log(t) / t)
					gx := x1 * f
					gy := x2 * f
					sx += gx
					sy += gy
					acc++
					l := int(math.Max(math.Abs(gx), math.Abs(gy)))
					if l < annuli {
						counts[l]++
					}
				}
			}
		}
		done += batch
		r.Compute(OpsPerPair*float64(batch), OffPerPair*float64(batch))
	}
	r.PhaseExit("ep.generate")

	// Closing reductions: annuli counts plus Σx, Σy and the acceptance
	// count, as one vector allreduce (matches NPB's two MPI_Allreduce
	// calls closely enough for M/B accounting).
	r.PhaseEnter("ep.reduce")
	var local [annuli + 3]float64
	for i := 0; i < annuli; i++ {
		local[i] = float64(counts[i])
	}
	local[annuli] = sx
	local[annuli+1] = sy
	local[annuli+2] = float64(acc)
	sum := func(a, b [annuli + 3]float64) [annuli + 3]float64 {
		for i := range a {
			a[i] += b[i]
		}
		return a
	}
	global := mpi.Allreduce(r, local, 8*(annuli+3), sum)
	// Reduction arithmetic: ⌈log2 p⌉ vector adds.
	r.Compute(float64(annuli+3)*math.Ceil(math.Log2(float64(r.Size()))+1), 0)
	r.PhaseExit("ep.reduce")

	copy(k.Q[:], global[:annuli])
	k.TotalSx = global[annuli]
	k.TotalSy = global[annuli+1]
	k.TotalAccepted = int64(global[annuli+2])
}

// Verify implements npb.Kernel: statistical invariants of the Marsaglia
// polar method with the NPB generator.
func (k *Kernel) Verify() error {
	if k.TotalAccepted == 0 {
		return fmt.Errorf("ep: no pairs accepted")
	}
	// Acceptance ratio → π/4.
	ratio := float64(k.TotalAccepted) / float64(k.pairs)
	if math.Abs(ratio-math.Pi/4) > 0.01 {
		return fmt.Errorf("ep: acceptance ratio %.4f far from π/4", ratio)
	}
	// Gaussian sums: mean ≈ 0 ⇒ |Σx| ≲ 4·sqrt(accepted) (4σ).
	bound := 4 * math.Sqrt(float64(k.TotalAccepted))
	if math.Abs(k.TotalSx) > bound || math.Abs(k.TotalSy) > bound {
		return fmt.Errorf("ep: coordinate sums (%.3g, %.3g) exceed 4σ bound %.3g", k.TotalSx, k.TotalSy, bound)
	}
	// Annuli tallies cannot exceed the number of accepted pairs, and the
	// innermost annulus must dominate (|N(0,1)| < 1 w.p. ≈ 0.68²).
	var qsum float64
	for _, q := range k.Q {
		qsum += q
	}
	if qsum > float64(k.TotalAccepted) {
		return fmt.Errorf("ep: annuli total %g exceeds accepted %d", qsum, k.TotalAccepted)
	}
	if k.Q[0] < 0.3*float64(k.TotalAccepted) {
		return fmt.Errorf("ep: first annulus %g implausibly small", k.Q[0])
	}
	return nil
}
