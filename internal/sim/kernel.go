// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel with a virtual clock.
//
// The kernel replaces the real clusters of the paper's evaluation: the
// simulated MPI runtime (package mpi), the power profiler (package power)
// and the NAS-style kernels (package npb) all advance this virtual clock
// instead of wall time, which lets a laptop reproduce scalability studies
// up to hundreds of ranks while keeping timing derived from the same
// machine parameters (tc, tm, Ts, Tb) the analytical model uses.
//
// Two execution styles share one event queue and one loop (Run):
//
//   - Pure event-driven code schedules callbacks with Schedule/After. With
//     no process spawned Run is a tight single-goroutine loop over a
//     value-typed 4-ary heap with no channel operations — what the
//     power-budget scheduler runs on. The kernel allocates nothing per
//     event; callers keep it so by binding each recurring callback once
//     (a chain's phase completion, the profiler's tick) and re-arming it.
//     ScheduleSeries queues a whole sorted series (a trace's arrivals)
//     one event at a time, so the heap holds live events and the next
//     arrival, not the trace; a cancelled Timer leaves a tombstone the
//     loop meets in key order, so no pop probes a set.
//   - Process-oriented code (Spawn) models blocking behaviour: every
//     simulated process (Proc) runs in its own goroutine, but exactly one
//     goroutine — either the kernel loop or a single process — executes
//     at any moment. Control is handed off through unbuffered channels,
//     so execution is sequential and, for a fixed seed, bit-for-bit
//     deterministic. Processes block by parking; other processes wake
//     them by scheduling events. Each process binds its wake event once,
//     at spawn, so a handoff (Sleep, SleepUntil, Park and UnparkAt)
//     allocates nothing.
//
// The kernel detects global deadlock (parked processes with an empty
// event queue) and reports who was parked and why. When Run returns with
// unfinished processes — deadlock or a process failure — their
// goroutines are drained (terminated cleanly), so building clusters in a
// loop never accumulates parked goroutines. A kernel is single-use: once
// Run returns, create a new kernel rather than running it again.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/units"
)

// event is a scheduled callback. Events with equal time fire in schedule
// (FIFO) order, which keeps runs deterministic. Events are held by value
// in the kernel's heap slice: pushing reuses the slice's spare capacity
// (the popped tail slots act as the free list), so scheduling allocates
// nothing of its own. A caller that re-arms a recurring callback binds
// it once and passes the same func value every time — a closure or
// method value built per call is one allocation per event.
type event struct {
	t   units.Seconds
	seq int64
	fn  func()
}

// before orders events by time, then schedule order.
func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is a 4-ary min-heap of events by (t, seq). A 4-ary layout
// halves the tree depth of a binary heap, trading a few extra sibling
// comparisons (cache-local: the four children are adjacent) for half the
// swap chain on every pop — the dominant cost at the queue sizes the
// cluster simulations reach.
type eventHeap []event

// push appends e and restores the heap property.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	// Sift up.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the closure; the slot is reused by push
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s[c].before(&s[min]) {
				min = c
			}
		}
		if !s[min].before(&s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Clock is a read-only view of a virtual clock. The kernel implements
// it; consumers that only need timestamps (the telemetry recorder) take
// a Clock instead of the whole kernel so they can never schedule events
// or perturb the simulation.
type Clock interface {
	Now() units.Seconds
}

var _ Clock = (*Kernel)(nil)

// Kernel is a discrete-event simulator instance.
type Kernel struct {
	now    units.Seconds
	events eventHeap
	seq    int64

	yield chan struct{} // proc → kernel: "I have blocked or finished"

	procs    []*Proc
	live     int // procs spawned and not yet finished (incl. parked)
	running  bool
	draining bool // Run is terminating leftover process goroutines
	procErr  error
	rng      *rand.Rand
	nEvents  int64

	// tombs holds the (t, seq) keys of events revoked via Timer.Cancel,
	// as a second heap. The event heap is not rebuilt on cancel: events
	// pop in strictly increasing key order, so the loop discards a popped
	// event whose key tops tombs and drops tombstones below it (cancels
	// of events that had already fired).
	tombs eventHeap

	// Always-on host-side gauges (a compare or two per event — see
	// Stats). They never feed back into the simulation.
	maxHeap  int           // heap depth high-water
	lastEvT  units.Seconds // sim time of the last fired event
	curDrain int64         // callbacks fired at lastEvT so far
	maxDrain int64         // longest same-instant callback cascade
}

// NewKernel returns a kernel whose random streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		yield: make(chan struct{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() units.Seconds { return k.now }

// RNG returns the kernel's deterministic random stream. It must only be
// used from kernel context (event callbacks or running processes).
func (k *Kernel) RNG() *rand.Rand { return k.rng }

// LiveProcs returns the number of spawned processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.live }

// Schedule registers fn to run in kernel context at virtual time t.
// fn must not block; to model blocking behaviour, use a Proc.
// Scheduling in the past is an error the kernel reports at Run time.
func (k *Kernel) Schedule(t units.Seconds, fn func()) {
	k.seq++
	k.push(event{t: t, seq: k.seq, fn: fn})
}

// push queues e, whose seq the caller has taken.
func (k *Kernel) push(e event) {
	if e.t < k.now {
		// Surface the bug: scheduling in the past would break causality
		// silently. Panic is appropriate here — this is a programming
		// error inside the simulator's callers, not an input error.
		panic(fmt.Sprintf("sim: schedule at %v before now %v", e.t, k.now))
	}
	k.events.push(e)
	if n := len(k.events); n > k.maxHeap {
		k.maxHeap = n
	}
}

// ScheduleSeries does what n Schedule calls, fn(i) at at(i) for i in
// [0, n), made now would do, but holds only the next one in the heap:
// it takes the seq block those calls would have taken, and firing i
// queues i+1 under its own seq, so every callback fires at the same
// (t, seq) key and in the same order. The times must not decrease.
func (k *Kernel) ScheduleSeries(n int, at func(i int) units.Seconds, fn func(i int)) {
	if n <= 0 {
		return
	}
	sr := &series{k: k, base: k.seq + 1, n: n, at: at, fn: fn}
	sr.next = sr.fire
	k.seq += int64(n)
	k.push(event{t: at(0), seq: sr.base, fn: sr.next})
}

// series is the state of one ScheduleSeries: i is the index the queued
// event fires, base its seq at index 0, next its event bound once.
type series struct {
	k    *Kernel
	base int64
	i, n int
	at   func(int) units.Seconds
	fn   func(int)
	next func()
}

func (sr *series) fire() {
	i := sr.i
	if sr.i++; sr.i < sr.n {
		sr.k.push(event{t: sr.at(sr.i), seq: sr.base + int64(sr.i), fn: sr.next})
	}
	sr.fn(i)
}

// After registers fn to run d from now.
func (k *Kernel) After(d units.Seconds, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.Schedule(k.now+d, fn)
}

// Timer is a handle to one scheduled event that can be revoked before it
// fires. The zero Timer is valid and Cancel on it is a no-op, so holders
// need no nil checks for "never armed". Cancelling an event that has
// already fired (or was already cancelled) is also a no-op: its key lies
// below every key still to pop, so the stale tombstone is dropped at
// the next pop, or when the queue drains.
type Timer struct {
	k   *Kernel
	t   units.Seconds
	seq int64
}

// Cancel revokes the timer's event if it has not fired yet.
func (t Timer) Cancel() {
	if t.k == nil || t.seq == 0 {
		return
	}
	t.k.tombs.push(event{t: t.t, seq: t.seq})
}

// ScheduleTimer is Schedule returning a cancellable handle.
func (k *Kernel) ScheduleTimer(t units.Seconds, fn func()) Timer {
	k.Schedule(t, fn)
	return Timer{k: k, t: t, seq: k.seq}
}

// DeadlockError reports a simulation that ended with parked processes.
type DeadlockError struct {
	Time   units.Seconds
	Parked []string // "name: reason" for each parked process
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d process(es) parked: %s",
		e.Time, len(e.Parked), strings.Join(e.Parked, "; "))
}

// loop is the shared event pump: pop, advance the clock, fire. Cancelled
// events are discarded before they are counted or move the clock — a
// cancelled timer leaves no trace on the simulation.
func (k *Kernel) loop() error {
	for len(k.events) > 0 {
		e := k.events.pop()
		if len(k.tombs) > 0 && !e.before(&k.tombs[0]) {
			for len(k.tombs) > 0 && k.tombs[0].before(&e) {
				k.tombs.pop()
			}
			if len(k.tombs) > 0 && k.tombs[0].seq == e.seq {
				k.tombs.pop()
				continue
			}
		}
		k.nEvents++
		if k.nEvents > 1 && e.t == k.lastEvT {
			k.curDrain++
		} else {
			k.lastEvT = e.t
			k.curDrain = 1
		}
		if k.curDrain > k.maxDrain {
			k.maxDrain = k.curDrain
		}
		k.now = e.t
		e.fn()
		if k.procErr != nil {
			return k.procErr
		}
	}
	// Tombstones for events cancelled after firing can never be met;
	// reclaim them once the queue drains.
	if len(k.events) == 0 {
		k.tombs = nil
	}
	return nil
}

// Run processes events until none remain or a process panics. It
// returns a *DeadlockError if processes are still parked when the event
// queue drains, and the recovered error if a process failed. Whatever
// the outcome, every spawned process goroutine has terminated by
// the time Run returns; the kernel must not be run again afterwards.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: kernel already running")
	}
	k.running = true
	defer func() { k.running = false }()

	err := k.loop()

	// Snapshot the deadlock report before draining clears the park flags.
	var parked []string
	for _, p := range k.procs {
		if !p.done && p.parked {
			parked = append(parked, p.name+": "+p.why.String())
		}
	}
	k.drain()
	if err != nil {
		return err
	}
	if len(parked) > 0 {
		sort.Strings(parked)
		return &DeadlockError{Time: k.now, Parked: parked}
	}
	return nil
}

// RunCallback is Run under the name package bench imports. It was once
// a second, channel-free loop; Run is that loop whenever no process has
// been spawned.
func (k *Kernel) RunCallback() error { return k.Run() }

// Stats are cumulative host-side kernel gauges: how much event traffic
// a run generated and how much pressure it put on the queue. They are
// pure observers — reading them never perturbs the simulation — and
// they are cheap enough (one compare in Schedule, two in the loop) to
// stay on unconditionally.
type Stats struct {
	// Events counts callbacks fired (cancelled events excluded).
	Events int64
	// MaxHeap is the event-heap depth high-water mark.
	MaxHeap int
	// MaxDrain is the longest run of callbacks fired at one sim
	// instant — the deepest same-time cascade the run produced.
	MaxDrain int64
}

// Stats returns the kernel's cumulative gauges. Valid at any point;
// most callers read it after Run returns.
func (k *Kernel) Stats() Stats {
	return Stats{Events: k.nEvents, MaxHeap: k.maxHeap, MaxDrain: k.maxDrain}
}

// abortSignal unwinds a process goroutine during drain. It is raised by
// block when the kernel is draining and swallowed by the Spawn wrapper's
// recover, so user code's defers still run.
type abortSignal struct{}

// drain terminates every unfinished process goroutine: each one is
// resumed with the draining flag set, which makes its next block() — the
// one it is currently inside — unwind via an abortSignal panic that the
// Spawn wrapper recovers. Processes whose start event never fired return
// before entering user code. Kernel context only, queue no longer
// running.
func (k *Kernel) drain() {
	if k.live == 0 {
		return
	}
	k.draining = true
	for _, p := range k.procs {
		if p.done {
			continue
		}
		p.resume <- struct{}{}
		<-k.yield
	}
	k.draining = false
}

// Proc is a simulated process. All methods must be called from the
// process's own goroutine (i.e. inside the function passed to Spawn),
// except UnparkAt, which must be called from kernel context — another
// running process or a scheduled event.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	wake   func() // the handoff event, bound once at spawn
	done   bool
	parked bool
	why    fmt.Stringer // Park's reason, formatted only for a report
}

// Now returns the current virtual time.
func (p *Proc) Now() units.Seconds { return p.k.now }

// Spawn creates a process and schedules it to start at the current
// virtual time. fn runs in its own goroutine under the kernel's
// cooperative handoff. A panic inside fn aborts the simulation and is
// returned from Run.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a process that starts at virtual time t ≥ now.
func (k *Kernel) SpawnAt(t units.Seconds, name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{})}
	p.wake = func() { k.handoff(p) }
	k.procs = append(k.procs, p)
	k.live++
	go func() {
		<-p.resume // wait for the kernel to start us
		defer func() {
			if r := recover(); r != nil {
				if _, abort := r.(abortSignal); !abort && k.procErr == nil {
					k.procErr = fmt.Errorf("sim: process %s panicked: %v", p.name, r)
				}
			}
			p.done = true
			k.live--
			k.yield <- struct{}{}
		}()
		if k.draining {
			return // drained before our start event fired
		}
		fn(p)
	}()
	k.Schedule(t, p.wake)
	return p
}

// handoff transfers control to p and waits until p blocks or finishes.
// Kernel context only.
func (k *Kernel) handoff(p *Proc) {
	if p.done {
		panic(fmt.Sprintf("sim: resuming finished process %s", p.name))
	}
	p.resume <- struct{}{}
	<-k.yield
}

// block suspends the calling process and returns control to the kernel.
// If the kernel is draining when control comes back, the goroutine
// unwinds instead of resuming user code. The entry check covers process
// defers that block again (Sleep/Park inside a defer) while their
// goroutine is being drained: without it the defer's yield would be
// consumed by drain as if the process had finished and the goroutine
// would park forever.
func (p *Proc) block() {
	if p.k.draining {
		panic(abortSignal{})
	}
	p.k.yield <- struct{}{}
	<-p.resume
	if p.k.draining {
		panic(abortSignal{})
	}
}

// Sleep advances the process's local time by d: the process is suspended
// and resumes at now+d. d must be non-negative; Sleep(0) still yields to
// the kernel, preserving FIFO fairness among same-time events.
func (p *Proc) Sleep(d units.Seconds) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %v", p.name, d))
	}
	p.k.After(d, p.wake)
	p.block()
}

// SleepUntil suspends the process until virtual time t ≥ now.
func (p *Proc) SleepUntil(t units.Seconds) {
	if t < p.k.now {
		panic(fmt.Sprintf("sim: %s: sleep until %v before now %v", p.name, t, p.k.now))
	}
	p.k.Schedule(t, p.wake)
	p.block()
}

// Park suspends the process indefinitely. Another process must wake it
// with UnparkAt; exactly one UnparkAt must follow each Park. why is
// formatted only if a deadlock report names the process, so it must
// still describe the wait when Run returns, and a park that is woken
// formats nothing.
func (p *Proc) Park(why fmt.Stringer) {
	if p.parked {
		panic(fmt.Sprintf("sim: %s: park while already parked", p.name))
	}
	p.parked = true
	p.why = why
	p.block()
	p.parked = false
	p.why = nil
}

// UnparkAt schedules the parked process p to resume at virtual time
// t ≥ now. It must be called from kernel context (a running process or a
// scheduled event), never from p itself.
func (p *Proc) UnparkAt(t units.Seconds) {
	if !p.parked {
		panic(fmt.Sprintf("sim: unpark of non-parked process %s", p.name))
	}
	if p.done {
		panic(fmt.Sprintf("sim: unpark of finished process %s", p.name))
	}
	p.parked = false // claim the wake so double-unpark is caught here
	p.why = nil
	p.k.Schedule(t, p.wake)
}
