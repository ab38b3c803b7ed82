package mpi

import (
	"fmt"
	"math/bits"

	"repro/internal/units"
)

// Collective tags live above this base; each collective call on a rank
// consumes one sequence number so that back-to-back collectives cannot
// mismatch. All ranks must call collectives in the same order (standard
// MPI requirement).
const collTagBase = 1 << 20

func (r *Rank) nextCollTag(kind int) int {
	tag := collTagBase + r.collSeq*nKinds + kind
	r.collSeq++
	return tag
}

// Collective kind ids for tag construction.
const (
	kindAllreduce = iota
	kindAlltoall
	nKinds
)

// Allreduce combines every rank's contribution and returns the result on
// all ranks, using recursive doubling with the standard non-power-of-two
// pre/post folding. combine must be associative, commutative and PURE:
// it must not mutate dst or src. Payloads travel by reference in the
// simulated shared address space, so in-place mutation of a value
// already posted to a partner would corrupt the exchange — like reusing
// an MPI buffer before the request completes. Return fresh storage for
// slice results.
func Allreduce[T any](r *Rank, value T, bytes units.Bytes, combine func(dst, src T) T) T {
	p := r.Size()
	tag := r.nextCollTag(kindAllreduce)
	if p == 1 {
		return value
	}

	// pof2 = largest power of two ≤ p.
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2

	acc := value
	// Each partial a rank sends (at most log2(pof2)+1) gets its own
	// cell, written once and sent by pointer (see Message).
	cells := make([]T, 0, bits.Len(uint(pof2)))
	post := func() *T { cells = append(cells, acc); return &cells[len(cells)-1] }
	// Fold the tail ranks into the leading pof2 ranks.
	newRank := -1
	switch {
	case r.rank < 2*rem && r.rank%2 == 0:
		// Even ranks in the front block send to their odd neighbour and
		// sit out the doubling phase.
		r.Send(r.rank+1, tag, post(), bytes)
	case r.rank < 2*rem:
		msg := r.Recv(r.rank-1, tag)
		acc = combine(acc, *msg.Data.(*T))
		newRank = r.rank / 2
	default:
		newRank = r.rank - rem
	}

	if newRank >= 0 {
		for dist := 1; dist < pof2; dist *= 2 {
			partnerNew := newRank ^ dist
			partner := partnerNew
			if partnerNew < rem {
				partner = partnerNew*2 + 1
			} else {
				partner = partnerNew + rem
			}
			msg := r.SendRecv(partner, tag, post(), bytes, partner, tag)
			acc = combine(acc, *msg.Data.(*T))
		}
	}

	// Send results back to the even front ranks that sat out.
	switch {
	case r.rank < 2*rem && r.rank%2 == 0:
		msg := r.Recv(r.rank+1, tag)
		acc = *msg.Data.(*T)
	case r.rank < 2*rem:
		r.Send(r.rank-1, tag, post(), bytes)
	}
	return acc
}

// Alltoall performs a personalised all-to-all exchange: send[i] goes to
// rank i as &send[i], so the slot and its block fall under Message's
// by-reference rule; the result's element j is the block rank j sent
// here. It uses the pairwise-exchange algorithm (the one the paper's FT
// analysis prices with the Hockney model): p−1 full-duplex rounds, each
// exchanging one block, for a total cost of (p−1)·(Ts + m·Tb) per rank.
func Alltoall[T any](r *Rank, send []T, blockBytes units.Bytes) []T {
	if p := r.Size(); len(send) != p {
		panic(fmt.Sprintf("mpi: alltoall needs %d blocks, got %d", p, len(send)))
	}
	return pairwise(r, send, blockBytes, nil)
}

// Alltoallv is the varying-size personalised exchange used by the IS
// bucket sort: block i of size sizes[i] bytes goes to rank i as &send[i].
func Alltoallv[T any](r *Rank, send []T, sizes []units.Bytes) []T {
	if p := r.Size(); len(send) != p || len(sizes) != p {
		panic(fmt.Sprintf("mpi: alltoallv needs %d blocks and sizes, got %d/%d", p, len(send), len(sizes)))
	}
	return pairwise(r, send, 0, sizes)
}

// pairwise is the exchange under Alltoall and Alltoallv: block i is
// sizes[i] bytes, or block bytes when sizes is nil. The self block is a
// local copy, priced as one.
func pairwise[T any](r *Rank, send []T, block units.Bytes, sizes []units.Bytes) []T {
	size := func(i int) units.Bytes {
		if sizes == nil {
			return block
		}
		return sizes[i]
	}
	p := r.Size()
	tag := r.nextCollTag(kindAlltoall)
	out := make([]T, p)
	out[r.rank] = send[r.rank]
	if p == 1 {
		return out
	}
	self := r.rt.cl.MessageTime(r.rank, r.rank, size(r.rank))
	r.proc.Sleep(units.Seconds(float64(self) * r.rt.cl.Alpha()))
	for i := 1; i < p; i++ {
		dst := (r.rank + i) % p
		src := (r.rank - i + p) % p
		msg := r.SendRecv(dst, tag, &send[dst], size(dst), src, tag)
		out[src] = *msg.Data.(*T)
	}
	return out
}
