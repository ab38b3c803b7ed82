// Package perfctr provides simulated hardware performance counters.
//
// It plays the role Perfmon plays in the paper (§IV.B): the NAS-style
// kernels increment these counters as they execute, and the model-building
// code reads them to obtain the application-dependent workload parameters
// Won (on-chip computation), Woff (off-chip memory accesses), and the
// parallel overheads ΔWon, ΔWoff — plus the communication counts M and B
// otherwise obtained through TAU/PMPI.
//
// The counters hold workload counts only; the busy time the energy model
// prices is the cluster's own ledger. Like the hardware they stand in
// for, they stay on for the whole run: a Set is one dense slot per rank,
// made when the cluster is provisioned, so an operation's lookup is an
// index.
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
}

// Set holds one rank's counters at each index, e.g. one per MPI rank.
type Set []Counters

// Total aggregates all ranks, yielding the "all" totals of Eq. 15
// (Won+ΔWon as the total on-chip workload over all processors, etc.).
func (s Set) Total() Counters {
	var total Counters
	for i := range s {
		total.Add(s[i])
	}
	return total
}

// String renders a compact table for logs and CLI output.
func (s Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %14s %10s %14s\n", "rank", "on-chip", "off-chip", "msgs", "bytes")
	for r, c := range s {
		fmt.Fprintf(&b, "%6d %14.4g %14.4g %10d %14.4g\n", r, c.OnChipOps, c.OffChipAccesses, c.Messages, c.BytesSent)
	}
	t := s.Total()
	fmt.Fprintf(&b, "%6s %14.4g %14.4g %10d %14.4g\n", "total", t.OnChipOps, t.OffChipAccesses, t.Messages, t.BytesSent)
	return b.String()
}
