// Package netmodel provides the point-to-point communication cost model
// for the simulated interconnect.
//
// The paper (Eq. 17 and §V.B.1) uses the Hockney model: sending a message
// of m bytes costs Ts + m·Tb, where Ts is the start-up (latency) time and
// Tb the per-byte transmission time. Collective algorithms built on this
// (package mpi) then reproduce the costs the paper assumes, e.g. the
// pairwise-exchange all-to-all at (p−1)·(Ts + m·Tb). A free network is
// the same model with Ts = Tb = 0.
package netmodel

import (
	"fmt"

	"repro/internal/units"
)

// Model prices a single point-to-point message. The cluster holds a
// Hockney directly; bench/'s netmodel layer times a call through this.
type Model interface {
	// MessageTime returns the network occupancy time for one message of
	// the given size between two distinct ranks.
	MessageTime(size units.Bytes) units.Seconds
}

// Hockney is the classic two-parameter α/β model: t(m) = Ts + m·Tb.
type Hockney struct {
	Ts units.Seconds // per-message start-up time
	Tb units.Seconds // per-byte transmission time
}

// MessageTime implements Model.
func (h Hockney) MessageTime(size units.Bytes) units.Seconds {
	if size < 0 {
		panic(fmt.Sprintf("netmodel: negative message size %v", size))
	}
	return h.Ts + units.Seconds(float64(size)*float64(h.Tb))
}

// InfiniBand40G returns the Hockney parameters used for SystemG's
// Mellanox 40 Gb/s fabric.
func InfiniBand40G() Hockney {
	return Hockney{Ts: 2.6 * units.Microsecond, Tb: 0.2 * units.Nanosecond}
}
