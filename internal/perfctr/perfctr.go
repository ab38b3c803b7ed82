// Package perfctr provides simulated hardware performance counters.
//
// It plays the role Perfmon plays in the paper (§IV.B): the NAS-style
// kernels increment these counters as they execute, and the model-building
// code reads them to obtain the application-dependent workload parameters
// Won (on-chip computation), Woff (off-chip memory accesses), and the
// parallel overheads ΔWon, ΔWoff — plus the communication counts M and B
// otherwise obtained through TAU/PMPI.
//
// Like the hardware they stand in for, the counters are meant to stay on
// for the whole run, so the per-operation lookup (Set.Rank) is kept to an
// index and a nil check.
package perfctr

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// Counters accumulates the workload of a single rank. All quantities are
// float64 because workloads are used as continuous model inputs; the
// kernels only add non-negative increments.
type Counters struct {
	// OnChipOps counts on-chip computation instructions (registers and
	// on-chip caches) — the per-rank share of Won (+ ΔWon in parallel runs).
	OnChipOps float64

	// OffChipAccesses counts main-memory accesses — the per-rank share of
	// Woff (+ ΔWoff).
	OffChipAccesses float64

	// Messages counts messages sent by this rank (M share).
	Messages int64

	// BytesSent counts payload bytes sent by this rank (B share).
	BytesSent float64

	// Busy-time attribution, filled by the cluster as the rank executes.
	ComputeTime units.Seconds
	MemoryTime  units.Seconds
	NetworkTime units.Seconds
	IOTime      units.Seconds
}

// AddCompute records w on-chip instructions.
func (c *Counters) AddCompute(w float64) {
	if w < 0 {
		panic(fmt.Sprintf("perfctr: negative on-chip work %g", w))
	}
	c.OnChipOps += w
}

// AddMemory records w off-chip memory accesses.
func (c *Counters) AddMemory(w float64) {
	if w < 0 {
		panic(fmt.Sprintf("perfctr: negative memory work %g", w))
	}
	c.OffChipAccesses += w
}

// AddMessage records one sent message of the given payload size.
func (c *Counters) AddMessage(bytes units.Bytes) {
	if bytes < 0 {
		panic(fmt.Sprintf("perfctr: negative message size %v", bytes))
	}
	c.Messages++
	c.BytesSent += float64(bytes)
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.OnChipOps += other.OnChipOps
	c.OffChipAccesses += other.OffChipAccesses
	c.Messages += other.Messages
	c.BytesSent += other.BytesSent
	c.ComputeTime += other.ComputeTime
	c.MemoryTime += other.MemoryTime
	c.NetworkTime += other.NetworkTime
	c.IOTime += other.IOTime
}

// Set is an indexed collection of per-rank counters, e.g. one per MPI rank.
// It is dense: rank r's counters live at index r of a slice grown on
// demand (nil = rank never touched).
type Set struct {
	byRank []*Counters
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{} }

// Rank returns (allocating if needed) the counters for a rank. Ranks are
// non-negative; a negative rank panics. The hit path inlines; a first
// touch goes through add.
func (s *Set) Rank(rank int) *Counters {
	if uint(rank) >= uint(len(s.byRank)) || s.byRank[rank] == nil {
		s.add(rank)
	}
	return s.byRank[rank]
}

// add grows the set to hold rank and allocates its counters.
func (s *Set) add(rank int) {
	if rank < 0 {
		panic(fmt.Sprintf("perfctr: negative rank %d", rank))
	}
	if rank >= len(s.byRank) {
		s.byRank = append(s.byRank, make([]*Counters, rank+1-len(s.byRank))...)
	}
	s.byRank[rank] = &Counters{}
}

// Total aggregates all ranks, yielding the "all" totals of Eq. 15
// (Won+ΔWon as the total on-chip workload over all processors, etc.).
func (s *Set) Total() Counters {
	var total Counters
	for _, c := range s.byRank {
		if c != nil {
			total.Add(*c)
		}
	}
	return total
}

// String renders a compact table for logs and CLI output.
func (s *Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %14s %10s %14s\n", "rank", "on-chip", "off-chip", "msgs", "bytes")
	for r, c := range s.byRank {
		if c == nil {
			continue
		}
		fmt.Fprintf(&b, "%6d %14.4g %14.4g %10d %14.4g\n", r, c.OnChipOps, c.OffChipAccesses, c.Messages, c.BytesSent)
	}
	t := s.Total()
	fmt.Fprintf(&b, "%6s %14.4g %14.4g %10d %14.4g\n", "total", t.OnChipOps, t.OffChipAccesses, t.Messages, t.BytesSent)
	return b.String()
}
