// Package netmodel provides point-to-point communication cost models for
// the simulated interconnect.
//
// The paper (Eq. 17 and §V.B.1) uses the Hockney model: sending a message
// of m bytes costs Ts + m·Tb, where Ts is the start-up (latency) time and
// Tb the per-byte transmission time. Collective algorithms built on this
// (package mpi) then reproduce the costs the paper assumes, e.g. the
// pairwise-exchange all-to-all at (p−1)·(Ts + m·Tb).
//
// A LogGP variant is provided as an extension and for the communication
// model ablation bench (DESIGN.md §5).
package netmodel

import (
	"fmt"

	"repro/internal/units"
)

// Model prices a single point-to-point message.
type Model interface {
	// MessageTime returns the network occupancy time for one message of
	// the given size between two distinct ranks.
	MessageTime(size units.Bytes) units.Seconds
	// Name identifies the model for reports.
	Name() string
}

// Hockney is the classic two-parameter α/β model: t(m) = Ts + m·Tb.
type Hockney struct {
	Ts units.Seconds // per-message start-up time
	Tb units.Seconds // per-byte transmission time
}

// Name implements Model.
func (h Hockney) Name() string { return "hockney" }

// MessageTime implements Model.
func (h Hockney) MessageTime(size units.Bytes) units.Seconds {
	if size < 0 {
		panic(fmt.Sprintf("netmodel: negative message size %v", size))
	}
	return h.Ts + units.Seconds(float64(size)*float64(h.Tb))
}

// LogGP is the Culler et al. extension separating sender overhead (O),
// per-byte gap for long messages (G) and network latency (L):
// t(m) = O + L + (m−1)·G. The gap g between distinct small messages is
// handled by NIC serialisation in the cluster, so it is not priced here.
type LogGP struct {
	L units.Seconds // wire latency
	O units.Seconds // send+receive software overhead
	G units.Seconds // per-byte gap for long messages
}

// Name implements Model.
func (l LogGP) Name() string { return "loggp" }

// MessageTime implements Model.
func (l LogGP) MessageTime(size units.Bytes) units.Seconds {
	if size < 0 {
		panic(fmt.Sprintf("netmodel: negative message size %v", size))
	}
	if size == 0 {
		return l.O + l.L
	}
	return l.O + l.L + units.Seconds(float64(size-1)*float64(l.G))
}

// Zero prices every message at zero cost. It exists for the network-model
// ablation (what would EE look like on an infinitely fast interconnect?).
type Zero struct{}

// Name implements Model.
func (Zero) Name() string { return "zero" }

// MessageTime implements Model.
func (Zero) MessageTime(size units.Bytes) units.Seconds {
	if size < 0 {
		panic(fmt.Sprintf("netmodel: negative message size %v", size))
	}
	return 0
}

// InfiniBand40G returns the Hockney parameters used for SystemG's
// Mellanox 40 Gb/s fabric.
func InfiniBand40G() Hockney {
	return Hockney{Ts: 2.6 * units.Microsecond, Tb: 0.2 * units.Nanosecond}
}
