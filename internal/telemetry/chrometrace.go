package telemetry

import (
	"bufio"
	"cmp"
	"io"

	"repro/internal/units"
)

// Chrome trace-event track layout. Perfetto (and chrome://tracing)
// group events by pid → tid, so the sink maps the scheduler's three
// natural axes onto three synthetic processes:
//
//	pid 1 "ranks"     — one thread per global rank; B/E spans are job
//	                    occupancy, instants are retunes drawn from
//	                    the decisions that made them.
//	pid 2 "jobs"      — one thread per job; a "wait" span from arrival
//	                    to admission/rejection, a "run" span to finish,
//	                    an "X" block for a backfill reservation at its
//	                    promised window, instants for governor actions.
//	pid 3 "scheduler" — control-plane threads (admission, governor,
//	                    plan) plus counter tracks: power_w, cap_w,
//	                    queue_depth, headroom_w, free_<pool>.
const (
	pidRanks     = 1
	pidJobs      = 2
	pidScheduler = 3

	tidAdmission = 1
	tidGovernor  = 2
	tidPlan      = 3
	tidFaults    = 4
)

// ChromeTraceSink streams the event stream as Chrome trace-event JSON
// ("JSON Object Format": {"traceEvents":[...]}). Events are written as
// they arrive; Close emits the closing bracket, so a finished file is
// valid JSON that loads directly in https://ui.perfetto.dev.
//
// Timestamps are sim-time microseconds (trace ts is always µs), so one
// sim second reads as one second on the Perfetto timeline.
type ChromeTraceSink struct {
	w     *bufio.Writer
	first bool
	err   error

	// ev is the trace event being rendered, args its "args" object: an
	// args value is built first, then spliced into one or more events.
	ev, args jbuf

	// procNamed / threadNamed track lazily-emitted "M" metadata events
	// so every track is labelled exactly once, on first use.
	procNamed   map[int]bool
	threadNamed map[[2]int]bool

	// waiting / running track which job threads have an open B span so
	// E events always pair (a rejected job closes "wait", never "run").
	waiting map[int]bool
	running map[int]bool
}

// NewChromeTraceSink wraps w in a streaming Chrome trace writer.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	s := &ChromeTraceSink{
		w:           bufio.NewWriter(w),
		first:       true,
		procNamed:   map[int]bool{},
		threadNamed: map[[2]int]bool{},
		waiting:     map[int]bool{},
		running:     map[int]bool{},
	}
	_, s.err = s.w.WriteString("{\"traceEvents\":[\n")
	return s
}

var procNames = [...]string{pidRanks: "ranks", pidJobs: "jobs", pidScheduler: "scheduler"}

// us converts sim seconds to trace microseconds.
func us(t units.Seconds) float64 { return float64(t) * 1e6 }

// label is a track or event name in parts, so composing one costs no
// string: text, then n when num is set, then sep+tail+end when tail is
// non-empty — "rank 3", "blocked j12 CG", "plan edge (pre-drop)".
type label struct {
	text           string
	n              int
	num            bool
	sep, tail, end string
}

func text(s string) label { return label{text: s} }

// numbered is prefix followed by n: "rank 3", "fail rank 3".
func numbered(prefix string, n int) label { return label{text: prefix, n: n, num: true} }

// jobLabel is prefix (which ends in the "j" of the job tag) followed by
// the job's ID and, when known, its application: "j12 CG",
// "blocked j12 CG".
func jobLabel(prefix string, ev *Event) label {
	return label{text: prefix, n: ev.Job, num: true, sep: " ", tail: ev.App}
}

// quoted appends the label as a JSON string.
func (l label) quoted(b *jbuf) *jbuf {
	b.raw(`"`).esc(l.text)
	if l.num {
		b.int(int64(l.n))
	}
	if l.tail != "" {
		b.raw(l.sep).esc(l.tail).raw(l.end)
	}
	return b.raw(`"`)
}

// begin starts the next trace event in s.ev, array separator included.
func (s *ChromeTraceSink) begin(head string, pid int) *jbuf {
	b := s.ev.reset()
	if !s.first {
		b.raw(",\n")
	}
	s.first = false
	return b.raw(head).int(int64(pid))
}

// emit writes the event rendered in s.ev, unless it holds a number JSON
// cannot carry (a sim time past ~1.8e302 s overflows µs): that fails
// the sink for good.
func (s *ChromeTraceSink) emit() {
	if s.err == nil {
		s.err = cmp.Or(s.ev.err, s.args.err)
	}
	if s.err == nil {
		_, s.err = s.w.Write(s.ev.b)
	}
}

// meta emits the process/thread name metadata for (pid, tid) once.
func (s *ChromeTraceSink) meta(pid, tid int, thread label) {
	if !s.procNamed[pid] {
		s.procNamed[pid] = true
		s.begin(`{"ph":"M","pid":`, pid).raw(`,"name":"process_name","args":{"name":`).str(procNames[pid]).raw(`}}`)
		s.emit()
		// Order the processes ranks → jobs → scheduler in the UI.
		s.begin(`{"ph":"M","pid":`, pid).raw(`,"name":"process_sort_index","args":{"sort_index":`).int(int64(pid)).raw(`}}`)
		s.emit()
	}
	key := [2]int{pid, tid}
	if !s.threadNamed[key] {
		s.threadNamed[key] = true
		b := s.begin(`{"ph":"M","pid":`, pid).raw(`,"tid":`).int(int64(tid)).raw(`,"name":"thread_name","args":{"name":`)
		thread.quoted(b).raw(`}}`)
		s.emit()
	}
}

// tail closes the event in s.ev after its name — timestamp, then args
// if any — and writes it.
func (s *ChromeTraceSink) tail(t units.Seconds, args []byte) {
	b := s.ev.raw(`,"ts":`).fixed(us(t), 3)
	if len(args) > 0 {
		b.raw(`,"args":`).bytes(args)
	}
	b.raw("}")
	s.emit()
}

// spanBegin opens a named duration span on (pid, tid).
func (s *ChromeTraceSink) spanBegin(pid, tid int, name label, t units.Seconds, args []byte) {
	b := s.begin(`{"ph":"B","pid":`, pid).raw(`,"tid":`).int(int64(tid))
	name.quoted(b.raw(`,"name":`))
	s.tail(t, args)
}

// spanEnd closes the span open on (pid, tid).
func (s *ChromeTraceSink) spanEnd(pid, tid int, t units.Seconds, args []byte) {
	s.begin(`{"ph":"E","pid":`, pid).raw(`,"tid":`).int(int64(tid))
	s.tail(t, args)
}

// instant emits a thread-scoped instant event.
func (s *ChromeTraceSink) instant(pid, tid int, name label, t units.Seconds, args []byte) {
	b := s.begin(`{"ph":"i","s":"t","pid":`, pid).raw(`,"tid":`).int(int64(tid))
	name.quoted(b.raw(`,"name":`))
	s.tail(t, args)
}

// counter emits a counter sample; series is the inner args object.
func (s *ChromeTraceSink) counter(name label, t units.Seconds, series []byte) {
	name.quoted(s.begin(`{"ph":"C","pid":`, pidScheduler).raw(`,"name":`))
	s.tail(t, series)
}

// count emits an integer counter sample {key: v}.
func (s *ChromeTraceSink) count(name label, t units.Seconds, key string, v int) {
	s.counter(name, t, s.args.reset().raw(key).int(int64(v)).raw("}").b)
}

// watts emits a {"watts": v} counter sample at prec decimals.
func (s *ChromeTraceSink) watts(name string, t units.Seconds, v units.Watts, prec int) {
	s.counter(text(name), t, s.args.reset().raw(`{"watts":`).fixed(float64(v), prec).raw("}").b)
}

// inGHz converts a frequency to the GHz the trace args carry.
func inGHz(f units.Hertz) float64 { return float64(f) / 1e9 }

// Write maps one telemetry event onto trace events.
func (s *ChromeTraceSink) Write(ev Event) error {
	job := jobLabel("j", &ev)
	a := s.args.reset()
	switch ev.Kind {
	case EvArrive:
		s.meta(pidJobs, ev.Job, job)
		a.raw(`{"app":`).str(ev.App).raw(`,"p_req":`).int(int64(ev.P)).raw("}")
		s.spanBegin(pidJobs, ev.Job, text("wait"), ev.T, a.b)
		s.waiting[ev.Job] = true
		s.count(text("queue_depth"), ev.T, `{"jobs":`, ev.Queue)

	case EvAttempt:
		s.meta(pidScheduler, tidAdmission, text("admission"))
		a.raw(`{"reason":`).str(ev.Reason).raw(`,"queue":`).int(int64(ev.Queue)).raw("}")
		s.instant(pidScheduler, tidAdmission, jobLabel("blocked j", &ev), ev.T, a.b)
		s.count(text("queue_depth"), ev.T, `{"jobs":`, ev.Queue)

	case EvAdmit:
		s.meta(pidJobs, ev.Job, job)
		s.endWait(&ev)
		a.raw(`{"pool":`).str(ev.Pool).raw(`,"p":`).int(int64(ev.P)).
			raw(`,"f_ghz":`).fixed(inGHz(ev.Freq), 3).raw(`,"w":`).fixed(float64(ev.Watts), 1).
			raw(`,"ee":`).fixed(ev.EE, 4).raw(`,"wait_s":`).fixed(float64(ev.Wait), 3).
			raw(`,"backfilled":`).bool(ev.Backfilled).raw("}")
		s.spanBegin(pidJobs, ev.Job, text("run"), ev.T, a.b)
		s.running[ev.Job] = true
		for _, r := range ev.Ranks {
			s.meta(pidRanks, r, numbered("rank ", r))
			s.spanBegin(pidRanks, r, job, ev.T, a.b)
		}
		s.watts("headroom_w", ev.T, ev.Headroom, 2)
		if ev.Pool != "" {
			s.count(label{text: "free_", tail: ev.Pool}, ev.T, `{"ranks":`, ev.Free)
		}
		s.count(text("queue_depth"), ev.T, `{"jobs":`, ev.Queue)
		s.rankRetunes(&ev)

	case EvReject:
		s.meta(pidJobs, ev.Job, job)
		s.endWait(&ev)
		a.raw(`{"reason":`).str(ev.Reason).raw("}")
		s.instant(pidJobs, ev.Job, text("reject"), ev.T, a.b)
		s.meta(pidScheduler, tidAdmission, text("admission"))
		s.instant(pidScheduler, tidAdmission, jobLabel("reject j", &ev), ev.T, a.b)

	case EvFinish:
		s.meta(pidJobs, ev.Job, job)
		a.raw(`{"energy_j":`).fixed(float64(ev.Energy), 1).raw(`,"retunes":`).int(int64(ev.P)).
			raw(`,"dur_s":`).fixed(float64(ev.Dur), 3).raw("}")
		s.endRun(&ev, a.b)
		s.watts("headroom_w", ev.T, ev.Headroom, 2)
		if ev.Pool != "" {
			s.count(label{text: "free_", tail: ev.Pool}, ev.T, `{"ranks":`, ev.Free)
		}
		s.rankRetunes(&ev)

	case EvReserve:
		s.meta(pidJobs, ev.Job, job)
		s.begin(`{"ph":"X","pid":`, pidJobs).raw(`,"tid":`).int(int64(ev.Job)).
			raw(`,"name":"reserved","ts":`).fixed(us(ev.At), 3).raw(`,"dur":`).fixed(us(ev.Dur), 3).
			raw(`,"args":{"pool":`).str(ev.Pool).raw(`,"p":`).int(int64(ev.P)).
			raw(`,"w":`).fixed(float64(ev.Watts), 1).raw("}}")
		s.emit()

	case EvThrottle, EvBoost:
		name, governed := "throttle", "throttle j"
		if ev.Kind == EvBoost {
			name, governed = "boost", "boost j"
		}
		a.raw(`{"f_from_ghz":`).fixed(inGHz(ev.FreqFrom), 3).raw(`,"f_ghz":`).fixed(inGHz(ev.Freq), 3).
			raw(`,"w_from":`).fixed(float64(ev.WattsFrom), 1).raw(`,"w":`).fixed(float64(ev.Watts), 1).
			raw(`,"reason":`).str(ev.Reason).raw("}")
		s.meta(pidJobs, ev.Job, job)
		s.instant(pidJobs, ev.Job, text(name), ev.T, a.b)
		s.meta(pidScheduler, tidGovernor, text("governor"))
		s.instant(pidScheduler, tidGovernor, jobLabel(governed, &ev), ev.T, a.b)
		s.rankRetunes(&ev)

	case EvPlanEdge:
		s.meta(pidScheduler, tidPlan, text("plan"))
		a.raw(`{"cap_w":`).fixed(float64(ev.Cap), 1).raw("}")
		s.instant(pidScheduler, tidPlan, label{text: "plan edge", sep: " (", tail: ev.Reason, end: ")"}, ev.T, a.b)
		s.watts("cap_w", ev.T, ev.Cap, 1)

	case EvSample:
		s.watts("power_w", ev.T, ev.Power, 2)
		s.watts("cap_w", ev.T, ev.Cap, 1)

	case EvViolation:
		s.meta(pidScheduler, tidGovernor, text("governor"))
		a.raw(`{"power_w":`).fixed(float64(ev.Power), 2).raw(`,"cap_w":`).fixed(float64(ev.Cap), 1).raw("}")
		s.instant(pidScheduler, tidGovernor, text("cap violation"), ev.T, a.b)

	case EvFail:
		s.meta(pidRanks, ev.Rank, numbered("rank ", ev.Rank))
		a.raw(`{"reason":`).str(ev.Reason).raw("}")
		s.instant(pidRanks, ev.Rank, text("FAIL"), ev.T, a.b)
		s.meta(pidScheduler, tidFaults, text("faults"))
		a.reset().raw(`{"pool":`).str(ev.Pool).raw(`,"reason":`).str(ev.Reason).raw("}")
		s.instant(pidScheduler, tidFaults, numbered("fail rank ", ev.Rank), ev.T, a.b)

	case EvRepair:
		s.meta(pidRanks, ev.Rank, numbered("rank ", ev.Rank))
		a.raw(`{"down_s":`).fixed(float64(ev.Dur), 3).raw("}")
		s.instant(pidRanks, ev.Rank, text("repair"), ev.T, a.b)
		s.meta(pidScheduler, tidFaults, text("faults"))
		a.reset().raw(`{"pool":`).str(ev.Pool).raw(`,"down_s":`).fixed(float64(ev.Dur), 3).raw("}")
		s.instant(pidScheduler, tidFaults, numbered("repair rank ", ev.Rank), ev.T, a.b)

	case EvKill:
		// A kill ends the job's run span exactly like a finish, but the
		// span closes into an instant that tells the loss story.
		s.meta(pidJobs, ev.Job, job)
		a.raw(`{"killed":true,"lost_work_s":`).fixed(float64(ev.Dur), 3).
			raw(`,"wasted_j":`).fixed(float64(ev.Energy), 1).raw("}")
		s.endRun(&ev, a.b)
		a.reset().raw(`{"lost_work_s":`).fixed(float64(ev.Dur), 3).raw(`,"wasted_j":`).fixed(float64(ev.Energy), 1).
			raw(`,"reason":`).str(ev.Reason).raw("}")
		s.instant(pidJobs, ev.Job, text("killed"), ev.T, a.b)
		s.rankRetunes(&ev)

	case EvCheckpoint:
		s.meta(pidJobs, ev.Job, job)
		a.raw(`{"progress":`).fixed(ev.EE, 4).raw("}")
		s.instant(pidJobs, ev.Job, text("checkpoint"), ev.T, a.b)

	case EvRestart:
		s.meta(pidJobs, ev.Job, job)
		a.raw(`{"attempt":`).int(int64(ev.P)).raw(`,"resume_from":`).fixed(ev.EE, 4).raw("}")
		s.instant(pidJobs, ev.Job, text("restart"), ev.T, a.b)
	}
	return s.err
}

// rankRetunes draws a decision's move FreqFrom → Freq as one "retune"
// instant per rank of ev.Ranks, and none when the decision left the
// frequency where it was (an admission at the park frequency).
func (s *ChromeTraceSink) rankRetunes(ev *Event) {
	if ev.FreqFrom == ev.Freq {
		return
	}
	a := s.args.reset().raw(`{"f_from_ghz":`).fixed(inGHz(ev.FreqFrom), 3).raw(`,"f_ghz":`).fixed(inGHz(ev.Freq), 3).raw("}")
	for _, r := range ev.Ranks {
		s.meta(pidRanks, r, numbered("rank ", r))
		s.instant(pidRanks, r, text("retune"), ev.T, a.b)
	}
}

// endWait closes the job's "wait" span if one is open.
func (s *ChromeTraceSink) endWait(ev *Event) {
	if s.waiting[ev.Job] {
		delete(s.waiting, ev.Job)
		s.spanEnd(pidJobs, ev.Job, ev.T, nil)
	}
}

// endRun closes the job's "run" span, if open, with args, and the
// occupancy span of each of its ranks.
func (s *ChromeTraceSink) endRun(ev *Event, args []byte) {
	if s.running[ev.Job] {
		delete(s.running, ev.Job)
		s.spanEnd(pidJobs, ev.Job, ev.T, args)
	}
	for _, r := range ev.Ranks {
		s.meta(pidRanks, r, numbered("rank ", r))
		s.spanEnd(pidRanks, r, ev.T, nil)
	}
}

// Close writes the closing bracket and flushes. Spans still open at sim
// end (jobs running when the horizon cut off) are left unmatched —
// Perfetto renders them as "did not finish", which is the truth.
func (s *ChromeTraceSink) Close() error {
	if s.err == nil {
		if _, err := s.w.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
			s.err = err
		}
	}
	if ferr := s.w.Flush(); ferr != nil && s.err == nil {
		s.err = ferr
	}
	return s.err
}
