package mpi

import (
	"fmt"

	"repro/internal/units"
)

// Collective tags live above this base; each collective call on a rank
// consumes one sequence number so that back-to-back collectives cannot
// mismatch. All ranks must call collectives in the same order (standard
// MPI requirement).
const collTagBase = 1 << 20

func (r *Rank) nextCollTag(kind int) int {
	tag := collTagBase + r.collSeq*16 + kind
	r.collSeq++
	return tag
}

// Collective kind ids for tag construction.
const (
	kindBarrier = iota
	kindBcast
	kindReduce
	kindAllreduce
	kindAllgather
	kindAlltoall
	kindGather
	kindScan
)

// Barrier synchronises all ranks with the dissemination algorithm:
// ⌈log2 p⌉ rounds of zero-byte pairwise exchanges, so the cost
// ⌈log2 p⌉·Ts emerges from the network model.
func (r *Rank) Barrier() {
	p := r.Size()
	if p == 1 {
		return
	}
	tag := r.nextCollTag(kindBarrier)
	for dist := 1; dist < p; dist *= 2 {
		dst := (r.rank + dist) % p
		src := (r.rank - dist + p) % p
		r.SendRecv(dst, tag, nil, 0, src, tag)
	}
}

// Bcast broadcasts root's payload along a binomial tree. Every rank
// returns the payload (receivers get the transmitted value; the root gets
// its own). bytes is the payload size used for pricing.
//
// Payloads are shared by reference: rank code must not mutate a received
// broadcast buffer without copying, just as a real MPI program must not
// overlap buffers.
func (r *Rank) Bcast(root int, payload interface{}, bytes units.Bytes) interface{} {
	p := r.Size()
	if p == 1 {
		return payload
	}
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mpi: bcast root %d out of range", root))
	}
	tag := r.nextCollTag(kindBcast)

	// Rotate so the root is virtual rank 0.
	vrank := (r.rank - root + p) % p

	// Receive from parent (highest set bit of vrank).
	data := payload
	if vrank != 0 {
		parentV := vrank &^ (1 << (bitsLen(vrank) - 1))
		parent := (parentV + root) % p
		msg := r.Recv(parent, tag)
		data = msg.Data
	}
	// Forward to children: each child sets one bit above vrank's highest.
	for bit := bitsLen(vrank); vrank|(1<<bit) < p; bit++ {
		child := ((vrank | (1 << bit)) + root) % p
		r.Send(child, tag, data, bytes)
	}
	return data
}

// bitsLen returns the number of bits needed to represent v (0 for v==0).
func bitsLen(v int) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// Reduce combines every rank's contribution with a binomial-tree
// reduction; the root returns the combined value with ok=true, other
// ranks return the zero value with ok=false.
//
// combine must be PURE: it must not mutate dst or src (payloads travel by
// reference in the simulated shared address space, so in-place mutation
// of a value already posted to a partner would corrupt the exchange —
// like reusing an MPI buffer before the request completes). Return fresh
// storage for slice results.
func Reduce[T any](r *Rank, root int, value T, bytes units.Bytes, combine func(dst, src T) T) (T, bool) {
	p := r.Size()
	tag := r.nextCollTag(kindReduce)
	var zero T
	if p == 1 {
		return value, true
	}
	vrank := (r.rank - root + p) % p
	acc := value
	// Binomial tree: in round k, vranks with bit k set send to
	// vrank &^ (1<<k); others receive from vrank | (1<<k) if it exists.
	for bit := 0; (1 << bit) < p; bit++ {
		if vrank&(1<<bit) != 0 {
			parent := ((vrank &^ (1 << bit)) + root) % p
			r.Send(parent, tag, acc, bytes)
			return zero, false
		}
		childV := vrank | (1 << bit)
		if childV < p {
			child := (childV + root) % p
			msg := r.Recv(child, tag)
			acc = combine(acc, msg.Data.(T))
		}
	}
	return acc, r.rank == root
}

// Allreduce combines every rank's contribution and returns the result on
// all ranks, using recursive doubling with the standard non-power-of-two
// pre/post folding. combine must be associative, commutative and PURE
// (see Reduce: no mutation of dst or src).
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
	// Fold the tail ranks into the leading pof2 ranks.
	newRank := -1
	switch {
	case r.rank < 2*rem && r.rank%2 == 0:
		// Even ranks in the front block send to their odd neighbour and
		// sit out the doubling phase.
		r.Send(r.rank+1, tag, acc, bytes)
	case r.rank < 2*rem:
		msg := r.Recv(r.rank-1, tag)
		acc = combine(acc, msg.Data.(T))
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
			msg := r.SendRecv(partner, tag, acc, bytes, partner, tag)
			acc = combine(acc, msg.Data.(T))
		}
	}

	// Send results back to the even front ranks that sat out.
	switch {
	case r.rank < 2*rem && r.rank%2 == 0:
		msg := r.Recv(r.rank+1, tag)
		acc = msg.Data.(T)
	case r.rank < 2*rem:
		r.Send(r.rank-1, tag, acc, bytes)
	}
	return acc
}

// Allgather concatenates each rank's block and returns blocks indexed by
// rank on every rank, using the ring algorithm: p−1 steps of
// neighbour exchange, each carrying one block.
func Allgather[T any](r *Rank, block T, bytes units.Bytes) []T {
	p := r.Size()
	tag := r.nextCollTag(kindAllgather)
	out := make([]T, p)
	out[r.rank] = block
	if p == 1 {
		return out
	}
	right := (r.rank + 1) % p
	left := (r.rank - 1 + p) % p
	// In step s we forward the block that originated at rank
	// (rank − s + p) % p.
	current := block
	for s := 0; s < p-1; s++ {
		msg := r.SendRecv(right, tag, current, bytes, left, tag)
		origin := (r.rank - s - 1 + p) % p
		current = msg.Data.(T)
		out[origin] = current
	}
	return out
}

// Alltoall performs a personalised all-to-all exchange: send[i] goes to
// rank i; the result's element j is the block rank j sent here. It uses
// the pairwise-exchange algorithm (the one the paper's FT analysis prices
// with the Hockney model): p−1 full-duplex rounds, each exchanging one
// block, for a total cost of (p−1)·(Ts + m·Tb) per rank.
func Alltoall[T any](r *Rank, send []T, blockBytes units.Bytes) []T {
	p := r.Size()
	if len(send) != p {
		panic(fmt.Sprintf("mpi: alltoall needs %d blocks, got %d", p, len(send)))
	}
	tag := r.nextCollTag(kindAlltoall)
	out := make([]T, p)
	out[r.rank] = send[r.rank] // self block: local copy, priced below
	if p == 1 {
		return out
	}
	// Price the local memcpy of the self block.
	self := r.rt.cl.MessageTime(r.rank, r.rank, blockBytes)
	r.proc.Sleep(units.Seconds(float64(self) * r.rt.cl.Alpha()))
	for i := 1; i < p; i++ {
		dst := (r.rank + i) % p
		src := (r.rank - i + p) % p
		msg := r.SendRecv(dst, tag, send[dst], blockBytes, src, tag)
		out[src] = msg.Data.(T)
	}
	return out
}

// Alltoallv is the varying-size personalised exchange used by the IS
// bucket sort: block i of size sizes[i] bytes goes to rank i.
func Alltoallv[T any](r *Rank, send []T, sizes []units.Bytes) []T {
	p := r.Size()
	if len(send) != p || len(sizes) != p {
		panic(fmt.Sprintf("mpi: alltoallv needs %d blocks and sizes, got %d/%d", p, len(send), len(sizes)))
	}
	tag := r.nextCollTag(kindAlltoall)
	out := make([]T, p)
	out[r.rank] = send[r.rank]
	if p == 1 {
		return out
	}
	self := r.rt.cl.MessageTime(r.rank, r.rank, sizes[r.rank])
	r.proc.Sleep(units.Seconds(float64(self) * r.rt.cl.Alpha()))
	for i := 1; i < p; i++ {
		dst := (r.rank + i) % p
		src := (r.rank - i + p) % p
		msg := r.SendRecv(dst, tag, send[dst], sizes[dst], src, tag)
		out[src] = msg.Data.(T)
	}
	return out
}

// gatherItem carries an (origin, block) pair through the gather tree.
// The block is stored untyped because Go does not allow local types to
// mention a function's type parameters.
type gatherItem struct {
	origin int
	block  interface{}
}

// Gather collects every rank's block at the root (binomial tree). The
// root returns blocks indexed by rank; other ranks return nil.
func Gather[T any](r *Rank, root int, block T, bytes units.Bytes) []T {
	p := r.Size()
	tag := r.nextCollTag(kindGather)
	if p == 1 {
		return []T{block}
	}
	// Collect (origin, block) pairs through a binomial tree over virtual
	// ranks rooted at 0.
	vrank := (r.rank - root + p) % p
	acc := []gatherItem{{origin: r.rank, block: block}}
	for bit := 0; (1 << bit) < p; bit++ {
		if vrank&(1<<bit) != 0 {
			parent := ((vrank &^ (1 << bit)) + root) % p
			r.Send(parent, tag, acc, units.Bytes(float64(bytes)*float64(len(acc))))
			return nil
		}
		childV := vrank | (1 << bit)
		if childV < p {
			child := (childV + root) % p
			msg := r.Recv(child, tag)
			acc = append(acc, msg.Data.([]gatherItem)...)
		}
	}
	out := make([]T, p)
	for _, it := range acc {
		out[it.origin] = it.block.(T)
	}
	return out
}
