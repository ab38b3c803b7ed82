// Package traceq is the offline query engine over NDJSON decision
// traces (cmd/traceq is its CLI). It answers the questions an operator
// asks of a finished run without re-running it:
//
//   - Why: one job's causal admission chain — when it arrived, what
//     blocked it (ranked reasons), what reservation it held, which
//     completion finally unblocked it, and how it ended.
//   - Critpath: the longest dependency chain through waits and runs
//     ending at the last completion — the sequence of jobs that set
//     the makespan.
//   - Windows: a per-cap-window rollup table (admissions, energy,
//     peak power, violations per budget window).
//   - Summary: stream-wide totals — events per kind, ranked block
//     reasons, violations.
//   - Chrome: the stream as Chrome trace-event JSON for Perfetto.
//   - Merge: a deterministic cross-site merge of federated traces
//     keyed by Event.Site.
//
// The causality rule the chain queries rest on: the scheduler's
// admission passes run inside completion and plan-edge events, so a
// job admitted at sim time t with positive queue wait was unblocked by
// the nearest preceding same-time finish, repair or plan-edge event in
// stream order. That is a structural property of the event stream
// (sinks observe events in kernel causal order), not a heuristic.
package traceq

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// Why writes job's decision chain: lifecycle, ranked block reasons,
// and the causal admission chain walking enablers backwards.
func Why(w io.Writer, evs []telemetry.Event, job int) error {
	var (
		seen     bool
		app      string
		attempts int
		reasons  = map[string]int64{}
		out      strings.Builder
	)
	var lifecycle []string
	for i := range evs {
		ev := &evs[i]
		if ev.Job != job {
			continue
		}
		seen = true
		if ev.App != "" {
			app = ev.App
		}
		switch ev.Kind {
		case telemetry.EvArrive:
			lifecycle = append(lifecycle, fmt.Sprintf("arrive   t=%.3f", float64(ev.T)))
		case telemetry.EvAttempt:
			attempts++
			reasons[ev.Reason]++
		case telemetry.EvReserve:
			lifecycle = append(lifecycle, fmt.Sprintf("reserve  t=%.3f pool=%s p=%d at=%.3f w=%.1fW",
				float64(ev.T), ev.Pool, ev.P, float64(ev.At), float64(ev.Watts)))
		case telemetry.EvAdmit:
			lifecycle = append(lifecycle, fmt.Sprintf("admit    t=%.3f pool=%s p=%d f=%.2fGHz wait=%.3fs backfilled=%v",
				float64(ev.T), ev.Pool, ev.P, float64(ev.Freq)/1e9, float64(ev.Wait), ev.Backfilled))
		case telemetry.EvThrottle:
			lifecycle = append(lifecycle, fmt.Sprintf("throttle t=%.3f %.2f→%.2fGHz (%s)",
				float64(ev.T), float64(ev.FreqFrom)/1e9, float64(ev.Freq)/1e9, ev.Reason))
		case telemetry.EvBoost:
			lifecycle = append(lifecycle, fmt.Sprintf("boost    t=%.3f %.2f→%.2fGHz (%s)",
				float64(ev.T), float64(ev.FreqFrom)/1e9, float64(ev.Freq)/1e9, ev.Reason))
		case telemetry.EvKill:
			lifecycle = append(lifecycle, fmt.Sprintf("kill     t=%.3f lost=%.3fs (%s)",
				float64(ev.T), float64(ev.Dur), ev.Reason))
		case telemetry.EvRestart:
			lifecycle = append(lifecycle, fmt.Sprintf("restart  t=%.3f retry=%d from=%.0f%%",
				float64(ev.T), ev.P, 100*ev.EE))
		case telemetry.EvReject:
			lifecycle = append(lifecycle, fmt.Sprintf("reject   t=%.3f (%s)", float64(ev.T), ev.Reason))
		case telemetry.EvFinish:
			lifecycle = append(lifecycle, fmt.Sprintf("finish   t=%.3f dur=%.3fs energy=%.1fJ retunes=%d",
				float64(ev.T), float64(ev.Dur), float64(ev.Energy), ev.P))
		case telemetry.EvRoute:
			lifecycle = append(lifecycle, fmt.Sprintf("route    t=%.3f site=%s (%s)", float64(ev.T), ev.Site, ev.Reason))
		}
	}
	if !seen {
		return fmt.Errorf("traceq: job %d does not appear in the trace", job)
	}
	fmt.Fprintf(&out, "job %d (%s):\n", job, app)
	for _, l := range lifecycle {
		fmt.Fprintf(&out, "  %s\n", l)
	}
	if attempts > 0 {
		fmt.Fprintf(&out, "  blocked  %d attempt(s); ranked reasons:\n", attempts)
		writeRanked(&out, reasons)
	}
	out.WriteString("causal admission chain:\n")
	writeChain(&out, evs, job)
	_, err := io.WriteString(w, out.String())
	return err
}

// chainLimit bounds the causal walk (cycles cannot occur — time is
// nonincreasing and each step crosses a distinct admission — but a
// bound keeps a malformed trace from looping).
const chainLimit = 64

// writeChain renders the enabler chain for job's admission, recursing
// through the finishes that unblocked each admission in turn.
func writeChain(out *strings.Builder, evs []telemetry.Event, job int) {
	cur := job
	for depth := 0; depth < chainLimit; depth++ {
		ai := findAdmit(evs, cur)
		if ai < 0 {
			fmt.Fprintf(out, "  job %d was never admitted\n", cur)
			return
		}
		adm := &evs[ai]
		if adm.Wait == 0 {
			fmt.Fprintf(out, "  job %d admitted at t=%.3f on arrival (no wait)\n", cur, float64(adm.T))
			return
		}
		en := findEnabler(evs, ai)
		if en < 0 {
			fmt.Fprintf(out, "  job %d admitted at t=%.3f after waiting %.3fs (no same-instant enabler in trace)\n",
				cur, float64(adm.T), float64(adm.Wait))
			return
		}
		ev := &evs[en]
		switch ev.Kind {
		case telemetry.EvFinish:
			fmt.Fprintf(out, "  job %d admitted at t=%.3f (waited %.3fs) ← unblocked by finish of job %d\n",
				cur, float64(adm.T), float64(adm.Wait), ev.Job)
			cur = ev.Job
		case telemetry.EvPlanEdge:
			fmt.Fprintf(out, "  job %d admitted at t=%.3f (waited %.3fs) ← unblocked by cap edge to %.0fW (%s)\n",
				cur, float64(adm.T), float64(adm.Wait), float64(ev.Cap), ev.Reason)
			return
		case telemetry.EvRepair:
			fmt.Fprintf(out, "  job %d admitted at t=%.3f (waited %.3fs) ← unblocked by repair of rank %d\n",
				cur, float64(adm.T), float64(adm.Wait), ev.Rank)
			return
		}
	}
}

// findAdmit returns the index of job's last admission (restarts
// re-admit), or -1.
func findAdmit(evs []telemetry.Event, job int) int {
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == telemetry.EvAdmit && evs[i].Job == job {
			return i
		}
	}
	return -1
}

// findEnabler returns the index of the nearest event before admitIdx,
// at the same sim time, whose kind can unblock an admission pass —
// finish, plan-edge or repair — or -1.
func findEnabler(evs []telemetry.Event, admitIdx int) int {
	t := evs[admitIdx].T
	for i := admitIdx - 1; i >= 0; i-- {
		if evs[i].T != t {
			return -1
		}
		switch evs[i].Kind {
		case telemetry.EvFinish, telemetry.EvPlanEdge, telemetry.EvRepair:
			return i
		}
	}
	return -1
}

// Critpath writes the longest wait/run dependency chain ending at the
// trace's final completion — the jobs that set the makespan.
func Critpath(w io.Writer, evs []telemetry.Event) error {
	// The chain's anchor: the finish with the greatest sim time
	// (latest in stream order among ties — the event that ended the
	// trace).
	last := -1
	for i := range evs {
		if evs[i].Kind == telemetry.EvFinish &&
			(last < 0 || evs[i].T >= evs[last].T) {
			last = i
		}
	}
	if last < 0 {
		return fmt.Errorf("traceq: trace has no finish events")
	}
	type seg struct {
		kind string // "run" | "wait" | "edge"
		job  int
		from units.Seconds
		to   units.Seconds
		note string
	}
	var segs []seg
	cur := last
	for depth := 0; depth < chainLimit && cur >= 0; depth++ {
		fin := &evs[cur]
		ai := findAdmit(evs, fin.Job)
		if ai < 0 {
			break
		}
		adm := &evs[ai]
		segs = append(segs, seg{kind: "run", job: fin.Job, from: adm.T, to: fin.T,
			note: fmt.Sprintf("pool=%s p=%d", adm.Pool, adm.P)})
		if adm.Wait == 0 {
			segs = append(segs, seg{kind: "edge", job: fin.Job, from: adm.T, to: adm.T, note: "arrival"})
			break
		}
		segs = append(segs, seg{kind: "wait", job: fin.Job, from: adm.T - adm.Wait, to: adm.T})
		en := findEnabler(evs, ai)
		if en < 0 {
			break
		}
		if evs[en].Kind != telemetry.EvFinish {
			segs = append(segs, seg{kind: "edge", job: telemetry.NoJob, from: evs[en].T, to: evs[en].T,
				note: evs[en].Kind.String()})
			break
		}
		cur = en
	}
	var out strings.Builder
	makespan := evs[last].T
	fmt.Fprintf(&out, "critical path to makespan %.3fs (%d segment(s)):\n", float64(makespan), len(segs))
	// Coverage is the union of the chain's intervals: a chain job's
	// queue wait overlaps its predecessor's run, so summing segment
	// lengths would double-count.
	type iv struct{ from, to units.Seconds }
	var ivs []iv
	for i := len(segs) - 1; i >= 0; i-- {
		sg := segs[i]
		switch sg.kind {
		case "edge":
			fmt.Fprintf(&out, "  t=%.3f         ── %s\n", float64(sg.from), sg.note)
		case "wait":
			fmt.Fprintf(&out, "  t=%.3f→%.3f wait job %-4d %8.3fs\n",
				float64(sg.from), float64(sg.to), sg.job, float64(sg.to-sg.from))
			ivs = append(ivs, iv{sg.from, sg.to})
		case "run":
			fmt.Fprintf(&out, "  t=%.3f→%.3f run  job %-4d %8.3fs  %s\n",
				float64(sg.from), float64(sg.to), sg.job, float64(sg.to-sg.from), sg.note)
			ivs = append(ivs, iv{sg.from, sg.to})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].from < ivs[b].from })
	var onPath, hi units.Seconds
	for _, v := range ivs {
		if v.from > hi {
			hi = v.from
		}
		if v.to > hi {
			onPath += v.to - hi
			hi = v.to
		}
	}
	fmt.Fprintf(&out, "  chain covers %.3fs of %.3fs makespan (%.0f%%)\n",
		float64(onPath), float64(makespan), pct(float64(onPath), float64(makespan)))
	_, err := io.WriteString(w, out.String())
	return err
}

// Windows writes the per-cap-window rollup: the trace partitioned at
// its plan-edge boundaries (one open-ended window when the trace has
// none), with each window's telemetry.Tally — decision counts, energy,
// peak power and mean admission wait. Events are assigned to windows in
// one pass, so the stream must be in sim-time order, as load ensures.
func Windows(w io.Writer, evs []telemetry.Event) error {
	type window struct {
		from units.Seconds
		cap  units.Watts
		telemetry.Tally
	}
	var wins []window
	for i := range evs {
		ev := &evs[i]
		// "pre-drop" edges are the governor's early throttle warning,
		// not a window boundary; the boundary edge follows at the
		// breakpoint itself.
		if ev.Kind == telemetry.EvPlanEdge && ev.Reason != "pre-drop" {
			if len(wins) > 0 && wins[len(wins)-1].from == ev.T {
				wins[len(wins)-1].cap = ev.Cap // coincident edges: last wins
				continue
			}
			wins = append(wins, window{from: ev.T, cap: ev.Cap})
		}
	}
	if len(wins) == 0 || wins[0].from > 0 {
		// The opening window: in force from t=0 to the first edge. Its
		// cap is the first audited sample's, if any.
		first := window{}
		for i := range evs {
			if evs[i].Kind == telemetry.EvSample {
				first.cap = evs[i].Cap
				break
			}
		}
		wins = append([]window{first}, wins...)
	}
	cur := 0
	for i := range evs {
		for cur+1 < len(wins) && evs[i].T >= wins[cur+1].from {
			cur++
		}
		wins[cur].Add(&evs[i])
	}
	var out strings.Builder
	out.WriteString("window            cap_w  admit finish reject thr/bst viol  energy_j  peak_w  mean_wait_s\n")
	for i := range wins {
		wn := &wins[i]
		until := "end"
		if i+1 < len(wins) {
			until = fmt.Sprintf("%.2f", float64(wins[i+1].from))
		}
		admits := wn.Counts[telemetry.EvAdmit]
		meanWait := 0.0
		if admits > 0 {
			meanWait = float64(wn.WaitSum) / float64(admits)
		}
		fmt.Fprintf(&out, "%7.2f→%-8s %6.0f  %5d %6d %6d %3d/%-3d %4d %9.1f %7.1f %12.3f\n",
			float64(wn.from), until, float64(wn.cap),
			admits, wn.Counts[telemetry.EvFinish], wn.Counts[telemetry.EvReject],
			wn.Counts[telemetry.EvThrottle], wn.Counts[telemetry.EvBoost],
			wn.Counts[telemetry.EvViolation], float64(wn.Energy), float64(wn.Peak), meanWait)
	}
	_, err := io.WriteString(w, out.String())
	return err
}

// Summary writes stream-wide totals: event counts per kind, block
// reasons ranked by frequency, and the violation count — the ten-second
// answer to "what did this run do".
func Summary(w io.Writer, evs []telemetry.Event) error {
	var t telemetry.Tally
	reasons := map[string]int64{}
	for i := range evs {
		t.Add(&evs[i])
		if evs[i].Kind == telemetry.EvAttempt && evs[i].Reason != "" {
			reasons[evs[i].Reason]++
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "events: %d total\n", t.Events)
	for k, n := range t.Counts {
		if n > 0 {
			fmt.Fprintf(&out, "  %-10s %d\n", telemetry.Kind(k), n)
		}
	}
	if len(reasons) > 0 {
		out.WriteString("blocked-on (admission attempts):\n")
		writeRanked(&out, reasons)
	}
	if v := t.Counts[telemetry.EvViolation]; v > 0 {
		fmt.Fprintf(&out, "cap violations: %d\n", v)
	}
	_, err := io.WriteString(w, out.String())
	return err
}

// Chrome writes evs as Chrome trace-event JSON (open it in
// https://ui.perfetto.dev): byte for byte what a ChromeTraceSink
// attached to the run would have written.
func Chrome(w io.Writer, evs []telemetry.Event) error {
	sink := telemetry.NewChromeTraceSink(w)
	for i := range evs {
		if err := sink.Write(evs[i]); err != nil {
			return fmt.Errorf("traceq: chrome: event %d (%s): %w", i+1, evs[i].Kind, err)
		}
	}
	if err := sink.Close(); err != nil {
		return fmt.Errorf("traceq: chrome: %w", err)
	}
	return nil
}

// NamedTrace is one input to Merge: a site label and its decoded
// event stream (already in emission order).
type NamedTrace struct {
	Site   string
	Events []telemetry.Event
}

// Merge interleaves the traces into one NDJSON stream on w, ordered by
// sim time with ties broken by input order (then line order within an
// input) — deterministic for a given input list. Events that carry no
// Site are stamped with their trace's label, so a federated run's
// per-site logs merge into one stream keyed by Event.Site.
func Merge(w io.Writer, traces []NamedTrace) error {
	sink := telemetry.NewNDJSONSink(w)
	idx := make([]int, len(traces))
	for {
		best := -1
		for ti := range traces {
			if idx[ti] >= len(traces[ti].Events) {
				continue
			}
			if best < 0 || traces[ti].Events[idx[ti]].T < traces[best].Events[idx[best]].T {
				best = ti
			}
		}
		if best < 0 {
			break
		}
		ev := traces[best].Events[idx[best]]
		if ev.Site == "" {
			ev.Site = traces[best].Site
		}
		idx[best]++
		if err := sink.Write(ev); err != nil {
			return err
		}
	}
	return sink.Close()
}

// writeRanked renders a reason histogram, one line per reason, in
// telemetry.Rank's order.
func writeRanked(out *strings.Builder, m map[string]int64) {
	for _, r := range telemetry.Rank(m) {
		fmt.Fprintf(out, "    %4d× %s\n", r.Count, r.Key)
	}
}

func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}
