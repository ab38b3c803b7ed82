package is

import (
	"sort"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/units"
)

// refKernel is IS as it was before its send blocks were cut from one
// per-run buffer: every repetition allocates its histogram, owner
// table, send blocks (grown by append) and sorted range, and sorts with
// sort.Slice. It is the oracle the kernel must match bit for bit.
type refKernel struct{ Kernel }

// newRef takes New's validation and defaults.
func newRef(cfg Config) (*refKernel, error) {
	k, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &refKernel{*k}, nil
}

func (k *refKernel) RunRank(r *mpi.Rank) {
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
	start := rank*(k.nKeys/p) + min64(rank, k.nKeys%p)

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
	bucketShift := uint(k.cfg.LogMaxKey) - uint(log2i(int(buckets)))

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
		owner := make([]int64, buckets)
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
		outBlocks := make([][]int32, p)
		for i := range outBlocks {
			outBlocks[i] = []int32{}
		}
		for _, key := range keys {
			dst := owner[int64(key)>>bucketShift]
			outBlocks[dst] = append(outBlocks[dst], key)
		}
		sizes := make([]units.Bytes, p)
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
		sorted = make([]int32, 0, total)
		for _, blk := range recv {
			sorted = append(sorted, blk...)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		r.Compute(sortOpsPerKey*float64(total)*float64(log2i(max(2, total))), 2*float64(total))
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

	// Boundary check with the right neighbour (ring).
	var myMax int32 = -1
	if len(sorted) > 0 {
		myMax = sorted[len(sorted)-1]
	}
	boundary := true
	if p > 1 {
		right := (rank + 1) % p
		left := (rank - 1 + p) % p
		msg := r.SendRecv(int(right), 77, myMax, 4, int(left), 77)
		leftMax := msg.Data.(int32)
		if rank > 0 && len(sorted) > 0 && leftMax > sorted[0] {
			boundary = false
		}
	}
	k.boundaryOK[rank] = boundary
	r.PhaseExit("is.verify")
}

// min64 and log2i are the helpers the kernel used before the min builtin
// and math/bits.
func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func log2i(v int) int {
	k := 0
	for v > 1 {
		v >>= 1
		k++
	}
	return k
}
