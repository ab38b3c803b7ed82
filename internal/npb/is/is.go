// Package is implements the NPB IS kernel: parallel integer sorting by
// bucketed key ranking. Each repetition histograms the local keys,
// allreduces the bucket counts, partitions buckets across ranks to
// balance load, redistributes the keys with an all-to-all-v exchange and
// counting-sorts the received range — the canonical latency-plus-volume
// communication mix.
package is

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/app"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/units"
)

// Operation-count conventions (mirrored by internal/app's IS closed
// forms).
const (
	histOpsPerKey = 3.0
	sortOpsPerKey = 6.0
	genOpsPerKey  = 12.0
	keyBytes      = 4
)

// noKeys is the ring boundary check's maximum of an empty range.
var noKeys int32 = -1

// Config sizes an IS instance.
type Config struct {
	// LogKeys: the run sorts 2^LogKeys keys.
	LogKeys int
	// LogMaxKey: keys are uniform in [0, 2^LogMaxKey).
	LogMaxKey int
	// Buckets used for load balancing (power of two).
	Buckets int
	// Iters repetitions (NPB uses 10).
	Iters int
	Seed  float64
}

// Classes returns NPB-flavoured sizes.
func Classes() map[string]Config {
	return map[string]Config{
		"T": {LogKeys: 14, LogMaxKey: 11, Buckets: 256, Iters: 3},
		"S": {LogKeys: 16, LogMaxKey: 11, Buckets: 512, Iters: 10},
		"W": {LogKeys: 20, LogMaxKey: 16, Buckets: 1024, Iters: 10},
		"A": {LogKeys: 23, LogMaxKey: 19, Buckets: 1024, Iters: 10},
		"B": {LogKeys: 25, LogMaxKey: 21, Buckets: 1024, Iters: 10},
	}
}

// Kernel is one IS run instance. Create with New, use once.
type Kernel struct {
	cfg    Config
	nKeys  int64
	maxKey int64

	// Cross-rank verification state.
	TotalSorted int64 // keys that ended up globally sorted (== nKeys)
	KeySumIn    float64
	KeySumOut   float64
	boundaryOK  []bool
	perRankOK   []bool
}

// New validates the configuration and prepares a run instance.
func New(cfg Config) (*Kernel, error) {
	if cfg.LogKeys < 8 || cfg.LogKeys > 30 {
		return nil, fmt.Errorf("is: LogKeys %d outside [8,30]", cfg.LogKeys)
	}
	if cfg.LogMaxKey < 4 || cfg.LogMaxKey > 27 {
		return nil, fmt.Errorf("is: LogMaxKey %d outside [4,27]", cfg.LogMaxKey)
	}
	if cfg.Buckets < 2 || cfg.Buckets&(cfg.Buckets-1) != 0 {
		return nil, fmt.Errorf("is: buckets %d must be a power of two ≥ 2", cfg.Buckets)
	}
	if cfg.Iters < 1 {
		return nil, fmt.Errorf("is: iters %d < 1", cfg.Iters)
	}
	var err error
	if cfg.Seed, err = npb.ResolveSeed(cfg.Seed); err != nil {
		return nil, fmt.Errorf("is: %w", err)
	}
	return &Kernel{cfg: cfg, nKeys: 1 << uint(cfg.LogKeys), maxKey: 1 << uint(cfg.LogMaxKey)}, nil
}

// Name implements npb.Kernel.
func (k *Kernel) Name() string { return "IS" }

// N implements npb.Kernel: total key count.
func (k *Kernel) N() float64 { return float64(k.nKeys) }

// Alpha implements npb.Kernel with app.IS's α (paper Table 2).
func (k *Kernel) Alpha() float64 { return app.IS(0, 0).Alpha }

// RunRank implements npb.Kernel.
func (k *Kernel) RunRank(r *mpi.Rank) {
	p := int64(r.Size())
	rank := int64(r.Rank())
	if k.boundaryOK == nil {
		k.boundaryOK = make([]bool, p)
		k.perRankOK = make([]bool, p)
	}
	nLocal := k.nKeys / p
	if rank < k.nKeys%p {
		nLocal++
	}
	start := rank*(k.nKeys/p) + min(rank, k.nKeys%p)

	// --- Key generation from the NPB LCG. ---
	r.PhaseEnter("is.generate")
	seed := npb.SeedAt(k.cfg.Seed, npb.LCGMultiplier, start)
	keys := make([]int32, nLocal)
	var sumIn float64
	for i := range keys {
		keys[i] = int32(float64(k.maxKey) * npb.Randlc(&seed, npb.LCGMultiplier))
		sumIn += float64(keys[i])
	}
	r.Compute(genOpsPerKey*float64(nLocal), float64(nLocal))
	r.PhaseExit("is.generate")

	k.KeySumIn = mpi.Allreduce(r, sumIn, 8, func(a, b float64) float64 { return a + b })

	buckets := int64(k.cfg.Buckets)
	bucketShift := uint(k.cfg.LogMaxKey) - uint(bits.Len(uint(buckets))-1)

	// Per-run buffers. The send blocks are cut from pack, sized every
	// repetition by the local bucket counts; the receivers read them by
	// reference (mpi.Message) and copy them into their own sorted range
	// before entering the next repetition's histogram allreduce, the
	// one thing between two writes of pack. The received range is the
	// same size every repetition, so sorted is allocated once.
	owner := make([]int64, buckets)
	pack := make([]int32, nLocal)
	outBlocks := make([][]int32, p)
	perDst := make([]int64, p)
	sizes := make([]units.Bytes, p)
	var sorted []int32
	for iter := 0; iter < k.cfg.Iters; iter++ {
		// --- Local histogram + global bucket counts. ---
		r.PhaseEnter("is.histogram")
		hist := make([]int64, buckets)
		for _, key := range keys {
			hist[int64(key)>>bucketShift]++
		}
		r.Compute(histOpsPerKey*float64(len(keys)), float64(len(keys)))
		global := mpi.Allreduce(r, hist, units.Bytes(8*buckets), func(a, b []int64) []int64 {
			out := make([]int64, len(a))
			for i := range a {
				out[i] = a[i] + b[i]
			}
			return out
		})
		r.Compute(float64(buckets), float64(buckets))
		r.PhaseExit("is.histogram")

		// --- Bucket → rank assignment by balanced prefix. ---
		var running, target int64
		target = (k.nKeys + p - 1) / p
		who := int64(0)
		for b := int64(0); b < buckets; b++ {
			owner[b] = who
			running += global[b]
			if running >= target*(who+1) && who < p-1 {
				who++
			}
		}
		r.Compute(2*float64(buckets), float64(buckets))

		// --- Redistribute keys. ---
		r.PhaseEnter("is.exchange")
		clear(perDst)
		for b, n := range hist {
			perDst[owner[b]] += n
		}
		var off int64
		for i, n := range perDst {
			outBlocks[i] = pack[off : off : off+n]
			off += n
		}
		for _, key := range keys {
			dst := owner[int64(key)>>bucketShift]
			outBlocks[dst] = append(outBlocks[dst], key)
		}
		for i, blk := range outBlocks {
			sizes[i] = units.Bytes(keyBytes * len(blk))
		}
		r.Compute(2*float64(len(keys)), float64(len(keys)))
		recv := mpi.Alltoallv(r, outBlocks, sizes)
		r.PhaseExit("is.exchange")

		// --- Local sort of the received range. ---
		r.PhaseEnter("is.sort")
		total := 0
		for _, blk := range recv {
			total += len(blk)
		}
		if cap(sorted) < total {
			sorted = make([]int32, 0, total)
		}
		sorted = sorted[:0]
		for _, blk := range recv {
			sorted = append(sorted, blk...)
		}
		slices.Sort(sorted)
		r.Compute(sortOpsPerKey*float64(total)*float64(bits.Len(uint(max(2, total)))-1), 2*float64(total))
		r.PhaseExit("is.sort")
	}

	// --- Verification: global sortedness and conservation. ---
	r.PhaseEnter("is.verify")
	localOK := true
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			localOK = false
			break
		}
	}
	var sumOut float64
	for _, key := range sorted {
		sumOut += float64(key)
	}
	r.Compute(2*float64(len(sorted)), float64(len(sorted)))
	k.perRankOK[rank] = localOK
	k.KeySumOut = mpi.Allreduce(r, sumOut, 8, func(a, b float64) float64 { return a + b })
	k.TotalSorted = mpi.Allreduce(r, int64(len(sorted)), 8, func(a, b int64) int64 { return a + b })

	// Boundary check with the right neighbour (ring). myMax is sent by
	// pointer (mpi.Message); sorted is not written again, noKeys never.
	myMax := &noKeys
	if len(sorted) > 0 {
		myMax = &sorted[len(sorted)-1]
	}
	boundary := true
	if p > 1 {
		right := (rank + 1) % p
		left := (rank - 1 + p) % p
		msg := r.SendRecv(int(right), 77, myMax, 4, int(left), 77)
		leftMax := *msg.Data.(*int32)
		if rank > 0 && len(sorted) > 0 && leftMax > sorted[0] {
			boundary = false
		}
	}
	k.boundaryOK[rank] = boundary
	r.PhaseExit("is.verify")
}

// Verify implements npb.Kernel.
func (k *Kernel) Verify() error {
	if k.TotalSorted != k.nKeys {
		return fmt.Errorf("is: %d keys after sort, want %d", k.TotalSorted, k.nKeys)
	}
	if k.KeySumIn != k.KeySumOut {
		return fmt.Errorf("is: key sum changed: %.0f → %.0f", k.KeySumIn, k.KeySumOut)
	}
	for rank, ok := range k.perRankOK {
		if !ok {
			return fmt.Errorf("is: rank %d range not locally sorted", rank)
		}
	}
	for rank, ok := range k.boundaryOK {
		if !ok {
			return fmt.Errorf("is: boundary violation at rank %d", rank)
		}
	}
	return nil
}
