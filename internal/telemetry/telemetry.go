// Package telemetry is the scheduler's observability layer (DESIGN.md
// §9): a structured, sim-time-stamped event stream explaining every
// scheduling decision, a metrics registry sampled on scheduling edges,
// and streaming exporters. The NDJSON event log is the run's one record
// of its decisions; every other view is a fold over it in
// internal/traceq — the Chrome trace-event JSON that opens directly in
// Perfetto (rendered by this package's ChromeTraceSink) and the text
// views (any job's lifecycle, the run's totals). Besides it, only the
// bounded-memory rollup and the metrics CSV are written in the run.
//
// The contract that keeps it free when unused: a nil *Recorder is a
// valid recorder whose methods are no-ops, and every emit site in the
// scheduler is additionally guarded, so a schedule run without
// telemetry executes the exact instruction stream it executed before
// the package existed — zero events, zero allocations, byte-identical
// schedules (pinned by the sched golden tests and the disabled-path
// allocation test here).
//
// Events are flat value structs: one Event type with a Kind
// discriminator and a superset of fields, so emitting never allocates
// (no per-kind boxing) and sinks stream them without reflection: every
// exporter renders through the one append-style writer in writer.go
// (jbuf), whose output is held byte-identical to encoding/json and fmt
// by the stream goldens in internal/sched/testdata and by fuzzing.
// encoding/json remains only where NDJSON is read back (DecodeNDJSON)
// and as that test oracle.
// Sinks receive events synchronously in kernel context; the Ranks
// slice aliases live scheduler state and is only valid during the
// Write call — sinks that retain events must copy it (MemorySink
// does).
package telemetry

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Kind discriminates event types.
type Kind uint8

const (
	// EvArrive: a job entered the queue.
	EvArrive Kind = iota
	// EvAttempt: an admission pass left the job queued; Reason names
	// the binding constraint (ranks, perf-slack, watts, plan-min-cap,
	// reservation, policy, model).
	EvAttempt
	// EvAdmit: the job was admitted and dispatched at (Pool, P, Freq)
	// onto Ranks, parked at FreqFrom; Watts is the candidate's marginal
	// draw, Dur its predicted runtime, Wait its queue wait, Backfilled
	// whether it jumped a blocked head under a reservation.
	EvAdmit
	// EvReject: the job can never run; Reason explains why.
	EvReject
	// EvFinish: the job completed and its Ranks park (FreqFrom → Freq);
	// Energy is its attributed energy, Dur its measured runtime, P its
	// retune count at completion.
	EvFinish
	// EvReserve: backfill promised the blocked job (Pool, P, Watts) at
	// future start At for predicted duration Dur.
	EvReserve
	// EvThrottle: the governor stepped the job's Ranks down its pool's
	// ladder (FreqFrom → Freq); WattsFrom/Watts are the predicted draw
	// before and after.
	EvThrottle
	// EvBoost: the governor stepped the job up the ladder; fields as
	// EvThrottle. Reason distinguishes boost from relinquish.
	EvBoost
	// EvRankRetune: rank Rank moved FreqFrom → Freq. No longer
	// emitted: the decisions above carry their ranks' moves.
	EvRankRetune
	// EvPlanEdge: a cap-timeline breakpoint edge fired; Cap is the cap
	// now in force, Reason is "pre-drop" for the early throttle edge.
	EvPlanEdge
	// EvSample: a profiler power sample; Power is the measured total,
	// Cap the budget it is audited against.
	EvSample
	// EvViolation: a sample exceeded its cap.
	EvViolation
	// EvFail: rank Rank died; Pool names its pool, Reason "scripted" or
	// "mtbf" distinguishes the fault source.
	EvFail
	// EvRepair: rank Rank came back; Dur is how long it was down.
	EvRepair
	// EvKill: a rank failure killed the job mid-run; Dur is the work
	// lost since its last checkpoint (seconds of re-execution), Energy
	// the energy the dead attempt had already consumed, Reason whether
	// the job requeued or is permanently lost. Ranks park as at
	// EvFinish; a job lost while queued has none.
	EvKill
	// EvCheckpoint: the job took a periodic checkpoint; EE carries its
	// saved progress fraction.
	EvCheckpoint
	// EvRestart: a previously killed job was re-dispatched; P is its
	// retry ordinal, EE the checkpointed fraction it resumes from.
	EvRestart
	// EvRoute: the federation frontend routed a job to a site; Site
	// names it, EE is the predicted energy-efficiency the choice was
	// priced at, Dur the predicted runtime there, Reason the routing
	// rule that fired (including spills). T is the job's arrival time:
	// routing happens in a pre-simulation pass, before any kernel clock
	// exists.
	EvRoute
)

var kindNames = [...]string{
	EvArrive:     "arrive",
	EvAttempt:    "attempt",
	EvAdmit:      "admit",
	EvReject:     "reject",
	EvFinish:     "finish",
	EvReserve:    "reserve",
	EvThrottle:   "throttle",
	EvBoost:      "boost",
	EvRankRetune: "retune",
	EvPlanEdge:   "plan-edge",
	EvSample:     "sample",
	EvViolation:  "violation",
	EvFail:       "fail",
	EvRepair:     "repair",
	EvKill:       "kill",
	EvCheckpoint: "checkpoint",
	EvRestart:    "restart",
	EvRoute:      "route",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one record of the decision stream. Kind selects which fields
// are meaningful (see the Kind constants); unused fields hold zero
// values. NoJob marks events not scoped to a job.
type Event struct {
	T    units.Seconds
	Kind Kind
	// Job is the subject job's ID, or NoJob.
	Job int
	// App labels the job's application vector ("FT", "EP", …).
	App string
	// Pool names the platform pool the event concerns.
	Pool string
	// Site names the federation site of an EvRoute (empty outside
	// federated runs).
	Site string
	// P is a width (EvAdmit/EvReserve) or a retune count (EvFinish).
	P int
	// Rank is the global rank of an EvRankRetune, EvFail or EvRepair.
	Rank int
	// Ranks is the job's rank set. It aliases scheduler state: valid
	// only during Sink.Write — copy to retain.
	Ranks []int
	// FreqFrom/Freq bound the operating-point change the event made on
	// Ranks (or on Rank, for EvRankRetune).
	FreqFrom, Freq units.Hertz
	// WattsFrom/Watts are predicted draws before/after a retune, or
	// the marginal cost of an admission/reservation.
	WattsFrom, Watts units.Watts
	// Cap is the budget in force; Power a measured total draw.
	Cap, Power units.Watts
	// Headroom is the spare budget after the event.
	Headroom units.Watts
	// Wait, Dur, At: queue wait, (predicted or measured) runtime, and
	// a reserved future start.
	Wait, Dur, At units.Seconds
	// Energy is the job-attributed energy of an EvFinish.
	Energy units.Joules
	// EE is the model iso-energy-efficiency of an admitted point.
	EE float64
	// Queue is the queue depth after the event applied.
	Queue int
	// Free is the free-rank count of the event's pool after the event.
	Free int
	// Backfilled marks an admission that jumped a blocked head.
	Backfilled bool
	// Reason carries rejection/attempt explanations and edge labels.
	Reason string
}

// NoJob is the Event.Job value of events not scoped to a job.
const NoJob = -1

// Sink consumes the event stream. Write runs synchronously in kernel
// context; implementations must not retain ev.Ranks past the call.
// Close flushes and finalises the output (trace JSON needs a footer).
type Sink interface {
	Write(ev Event) error
	Close() error
}

// Recorder fans the decision stream out to sinks and stamps events with
// sim time. The nil *Recorder is the disabled recorder: every method is
// a no-op, so call sites need no guard beyond the pointer they already
// hold (the scheduler guards anyway to skip argument construction).
type Recorder struct {
	clock   sim.Clock
	sinks   []Sink
	metrics *Metrics
	err     error
}

// New builds a recorder over the given sinks. The clock is wired later
// by whoever owns the simulation (sched.Scheduler.Run calls SetClock
// with its kernel); events emitted before that carry whatever T the
// emitter set (normally zero).
func New(sinks ...Sink) *Recorder {
	return &Recorder{sinks: sinks}
}

// SetClock wires the virtual clock used to stamp events.
func (r *Recorder) SetClock(c sim.Clock) {
	if r == nil {
		return
	}
	r.clock = c
}

// AddSink registers another sink.
func (r *Recorder) AddSink(s Sink) {
	if r == nil {
		return
	}
	r.sinks = append(r.sinks, s)
}

// Enabled reports whether the recorder records anything. The scheduler
// consults it once and keeps emit sites behind its own nil guard.
func (r *Recorder) Enabled() bool { return r != nil }

// Metrics returns the recorder's metrics registry, creating it on first
// use. The registry tallies the events emitted from then on.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	if r.metrics == nil {
		r.metrics = NewMetrics()
	}
	return r.metrics
}

// Emit stamps ev with the current sim time, tallies it into the metrics
// registry, if there is one, and writes it to every sink.
// Sink errors are sticky: the first is kept (Err) and later writes to
// the failed stream are suppressed by the sink's own error state, but
// emission to the remaining sinks continues — observability must never
// abort a simulation mid-run.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	if r.clock != nil {
		ev.T = r.clock.Now()
	}
	if r.metrics != nil {
		r.metrics.stream.Add(&ev)
	}
	for _, s := range r.sinks {
		if err := s.Write(ev); err != nil && r.err == nil {
			r.err = err
		}
	}
}

// Err returns the first sink error encountered, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}

// Close closes every sink (finalising streamed outputs) and returns the
// first error, including any sticky emission error.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	err := r.err
	for _, s := range r.sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// siteSink stamps events with a federation site name before
// forwarding — the per-site trace wiring fedrun's -events uses so
// cross-site merges (traceq merge) can key on Event.Site.
type siteSink struct {
	site  string
	inner Sink
}

// WithSite wraps inner so every event without a Site carries the given
// site name.
func WithSite(site string, inner Sink) Sink {
	return siteSink{site: site, inner: inner}
}

func (s siteSink) Write(ev Event) error {
	if ev.Site == "" {
		ev.Site = s.site
	}
	return s.inner.Write(ev)
}

func (s siteSink) Close() error { return s.inner.Close() }

// MemorySink retains the whole event stream in memory, for callers
// that query a run without an NDJSON round trip (the tests). Ranks
// slices are copied so retained events stay valid after the scheduler
// mutates its free lists.
type MemorySink struct {
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Write appends a deep-enough copy of ev.
func (m *MemorySink) Write(ev Event) error {
	if ev.Ranks != nil {
		ev.Ranks = append([]int(nil), ev.Ranks...)
	}
	m.events = append(m.events, ev)
	return nil
}

// Close is a no-op; the events stay readable.
func (m *MemorySink) Close() error { return nil }

// Events returns the retained stream in emission order.
func (m *MemorySink) Events() []Event { return m.events }
