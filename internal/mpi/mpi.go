// Package mpi implements a message-passing runtime on top of the
// simulated cluster — the stand-in for MPICH2/OpenMPI in this
// reproduction (DESIGN.md §2).
//
// Each rank is a simulated process with straight-line SPMD code, exactly
// like an MPI program. Point-to-point messages are priced by the
// cluster's network model (Hockney by default) with NIC serialisation, so
// collective costs emerge from the algorithms rather than being asserted:
// the pairwise-exchange all-to-all used by the FT benchmark costs
// (p−1)·(Ts + m·Tb), the value the paper's FT analysis assumes.
//
// The collectives are the three the NPB kernels call, with the classic
// MPICH algorithm choices (recursive-doubling allreduce, pairwise-exchange
// alltoall and alltoallv), all built on the Send/Recv primitives so that
// the TAU-style tracer observes every message (the model parameters M and
// B fall out of the trace).
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/units"
)

// AnySource matches messages from any sender in Recv.
const AnySource = -1

// Message is a received payload. Data is the sender's value, shared by
// reference in the simulated address space, as Allreduce says: the
// receiver reads it without copying, and a sender that reuses a buffer
// must not write it until every receiver has consumed it. In-tree
// senders pass a pointer to a slot under the same rule, as boxing a
// pointer allocates nothing, and receivers dereference it. The NPB
// kernels reuse their send buffers and slots across iterations and
// rely on an allreduce, which no rank leaves before every rank enters
// it, between two writes.
type Message struct {
	Src   int
	Tag   int
	Data  interface{}
	Bytes units.Bytes
}

// envelope is an in-flight or buffered message.
type envelope struct {
	msg     Message
	arrival units.Seconds
}

// mailbox buffers arrived messages for one rank and remembers the rank's
// pending receive, if any. Ranks are single processes, so at most one
// receive can be outstanding.
type mailbox struct {
	queue []envelope

	waiting bool
	waitSrc int
	waitTag int
	waiter  *sim.Proc
}

// String describes the pending receive for a deadlock report; the
// rank parks with Park(box), so nothing is formatted unless Run
// reports the rank stuck.
func (b *mailbox) String() string {
	return fmt.Sprintf("Recv(src=%d, tag=%d)", b.waitSrc, b.waitTag)
}

// match reports whether an envelope satisfies a (src, tag) receive.
func match(e envelope, src, tag int) bool {
	return (src == AnySource || e.msg.Src == src) && e.msg.Tag == tag
}

// delivery is one message in flight. Its kernel event calls run, the
// method value of fire bound when the delivery is made, and fire puts
// the delivery back on the runtime's free list, so a message allocates
// nothing once the list holds as many deliveries as are ever in flight.
type delivery struct {
	rt  *Runtime
	dst int
	e   envelope
	run func()
}

func (d *delivery) fire() {
	rt := d.rt
	rt.deliver(d.dst, d.e)
	d.e = envelope{} // the mailbox holds the payload now
	rt.free = append(rt.free, d)
}

// Runtime couples a provisioned cluster with rank mailboxes.
type Runtime struct {
	cl     *cluster.Cluster
	boxes  []*mailbox
	finish []units.Seconds
	free   []*delivery
	ran    bool
}

// New creates a runtime for every rank of the cluster.
func New(cl *cluster.Cluster) *Runtime {
	boxes := make([]*mailbox, cl.Ranks())
	for i := range boxes {
		boxes[i] = &mailbox{}
	}
	return &Runtime{
		cl:     cl,
		boxes:  boxes,
		finish: make([]units.Seconds, cl.Ranks()),
	}
}

// Size returns the number of ranks.
func (rt *Runtime) Size() int { return rt.cl.Ranks() }

// FinishTimes returns each rank's completion time; valid after Run.
func (rt *Runtime) FinishTimes() []units.Seconds { return rt.finish }

// Makespan returns the latest rank completion time; valid after Run.
func (rt *Runtime) Makespan() units.Seconds {
	var max units.Seconds
	for _, t := range rt.finish {
		if t > max {
			max = t
		}
	}
	return max
}

// Run launches fn on every rank and drives the simulation to completion.
// It returns the kernel's error: nil, a deadlock report naming stuck
// ranks, or a propagated panic from rank code.
func (rt *Runtime) Run(fn func(r *Rank)) error {
	if rt.ran {
		return fmt.Errorf("mpi: runtime already ran; create a new one per job")
	}
	rt.ran = true
	for i := 0; i < rt.Size(); i++ {
		i := i
		rt.cl.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			r := &Rank{rt: rt, proc: p, rank: i}
			fn(r)
			rt.finish[i] = p.Now()
			rt.cl.NoteWall(p.Now())
		})
	}
	return rt.cl.Kernel().Run()
}

// Rank is the per-process handle passed to SPMD code.
type Rank struct {
	rt      *Runtime
	proc    *sim.Proc
	rank    int
	collSeq int // per-rank collective sequence number for tag isolation
}

// Rank returns this process's rank id in [0, Size).
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.rt.Size() }

// Now returns the current virtual time.
func (r *Rank) Now() units.Seconds { return r.proc.Now() }

// Compute advances this rank by onChip instructions and offChip memory
// accesses (see cluster.Compute for the timing/energy semantics).
func (r *Rank) Compute(onChip, offChip float64) {
	r.rt.cl.Compute(r.proc, r.rank, onChip, offChip)
}

// Machine returns this rank's machine-dependent parameter vector, e.g.
// for cache-capacity-aware access counting.
func (r *Rank) Machine() machine.Params {
	return r.rt.cl.Params(r.rank)
}

// PhaseEnter marks the start of a named region for tracing/profiling.
func (r *Rank) PhaseEnter(name string) {
	r.rt.cl.Tracer().PhaseEnter(r.Now(), r.rank, name)
}

// PhaseExit marks the end of a named region.
func (r *Rank) PhaseExit(name string) {
	r.rt.cl.Tracer().PhaseExit(r.Now(), r.rank, name)
}

// asyncSend prices and launches a message without blocking past the
// network occupancy decision. It returns the delivery time. The payload
// becomes visible to the destination at that time.
func (r *Rank) asyncSend(dst, tag int, payload interface{}, bytes units.Bytes) units.Seconds {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpi: rank %d sends to invalid rank %d", r.rank, dst))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("mpi: negative payload size %v", bytes))
	}
	cl := r.rt.cl
	now := r.Now()

	raw := cl.MessageTime(r.rank, dst, bytes)
	wall := units.Seconds(float64(cl.NetworkJitter(raw)) * cl.Alpha())
	_, end := cl.ReserveLink(now, r.rank, dst, wall)

	cl.RecordSend(r.rank, bytes)
	cl.NoteWall(now)

	var d *delivery
	if n := len(r.rt.free); n > 0 {
		d = r.rt.free[n-1]
		r.rt.free = r.rt.free[:n-1]
	} else {
		d = &delivery{rt: r.rt}
		d.run = d.fire
	}
	d.dst = dst
	d.e = envelope{msg: Message{Src: r.rank, Tag: tag, Data: payload, Bytes: bytes}, arrival: end}
	cl.Kernel().Schedule(end, d.run)
	return end
}

// deliver runs in kernel context at the arrival time.
func (rt *Runtime) deliver(dst int, e envelope) {
	box := rt.boxes[dst]
	if box.waiting && match(e, box.waitSrc, box.waitTag) {
		box.waiting = false
		box.queue = append(box.queue, e)
		box.waiter.UnparkAt(e.arrival)
		return
	}
	box.queue = append(box.queue, e)
}

// Send transmits payload to dst and blocks until the transfer completes
// (blocking send with receiver-side buffering: a matching Recv need not
// be posted).
func (r *Rank) Send(dst, tag int, payload interface{}, bytes units.Bytes) {
	end := r.asyncSend(dst, tag, payload, bytes)
	r.proc.SleepUntil(end)
	r.rt.cl.NoteWall(r.Now())
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
// src may be AnySource.
func (r *Rank) Recv(src, tag int) Message {
	box := r.rt.boxes[r.rank]
	for i, e := range box.queue {
		if match(e, src, tag) {
			box.queue = append(box.queue[:i], box.queue[i+1:]...)
			return e.msg
		}
	}
	if box.waiting {
		panic(fmt.Sprintf("mpi: rank %d has two outstanding receives", r.rank))
	}
	box.waiting = true
	box.waitSrc = src
	box.waitTag = tag
	box.waiter = r.proc
	r.proc.Park(box)
	// We were woken by deliver, so a matching envelope exists. Take the
	// oldest match to preserve MPI's non-overtaking order.
	for i, e := range box.queue {
		if match(e, src, tag) {
			box.queue = append(box.queue[:i], box.queue[i+1:]...)
			r.rt.cl.NoteWall(r.Now())
			return e.msg
		}
	}
	panic(fmt.Sprintf("mpi: rank %d woke without a matching message", r.rank))
}

// SendRecv exchanges messages with potentially different partners,
// overlapping the outgoing transfer with the wait for the incoming one —
// the full-duplex exchange at the heart of pairwise all-to-all: a
// symmetric exchange of m bytes costs one Ts + m·Tb, not two.
func (r *Rank) SendRecv(dst, sendTag int, payload interface{}, bytes units.Bytes, src, recvTag int) Message {
	end := r.asyncSend(dst, sendTag, payload, bytes)
	msg := r.Recv(src, recvTag)
	if end > r.Now() {
		r.proc.SleepUntil(end)
	}
	return msg
}

// Abort panics with a rank-stamped message, terminating the simulation
// with an error from Run.
func (r *Rank) Abort(format string, args ...interface{}) {
	panic(fmt.Sprintf("mpi: rank %d aborted: %s", r.rank, fmt.Sprintf(format, args...)))
}
