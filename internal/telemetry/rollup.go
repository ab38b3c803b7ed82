package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/units"
)

// RollupSink is the bounded-memory degradation of the full-fidelity
// event stream: instead of one line per event it aggregates events
// into fixed-width sim-time buckets and streams one CSV row per
// non-empty bucket, keeping only O(1) state regardless of trace
// length — the current bucket's and the whole stream's Tally, a
// fixed-size reservoir sample of admission waits, and a bounded top-K
// table of block reasons. A 1M-job trace that would produce gigabytes
// of NDJSON rolls up into kilobytes without ever retaining an event.
//
// The output is deterministic for a given event stream (the reservoir
// RNG is explicitly seeded; the top-K table breaks ties
// lexicographically), so rollups are golden-pinnable and identical
// across GOMAXPROCS — the same contract as the schedule itself.
//
// Row format (header on first write):
//
//	t0_s,<one column per event kind>,wait_max_s,energy_j,power_max_w
//
// followed at Close by footer comment lines:
//
//	# totals: events=N arrive=… admit=… finish=… …
//	# wait_s: n=… p50=… p90=… p99=… max=… (reservoir 512)
//	# block-reasons: "…"=n "…"=n …
type RollupSink struct {
	bucket float64
	w      io.Writer
	row    jbuf
	err    error
	header bool

	open bool  // a bucket is accumulating
	idx  int64 // its index (floor(t/bucket))

	cur, total Tally // the open bucket's and the stream's

	res  reservoir
	topk topK
}

var _ Sink = (*RollupSink)(nil)

// reservoirSize is the fixed admission-wait sample size.
const reservoirSize = 512

// topKSize bounds how many distinct block reasons are tracked.
const topKSize = 12

// NewRollupSink aggregates into buckets of the given sim-time width
// (must be positive), streaming CSV rows to w.
func NewRollupSink(w io.Writer, bucket units.Seconds) (*RollupSink, error) {
	if bucket <= 0 || !units.Finite(bucket) {
		return nil, fmt.Errorf("telemetry: rollup bucket %v must be positive and finite", bucket)
	}
	s := &RollupSink{bucket: float64(bucket), w: w}
	s.res.init(reservoirSize)
	s.topk.init(topKSize)
	return s, nil
}

// Write folds one event into the current bucket, emitting finished
// bucket rows as sim time crosses bucket boundaries.
func (s *RollupSink) Write(ev Event) error {
	if s.err != nil {
		return s.err
	}
	idx := int64(float64(ev.T) / s.bucket)
	if s.open && idx < s.idx {
		idx = s.idx // clamp: pre-run events (EvRoute) fold forward
	}
	if s.open && idx > s.idx {
		s.flushBucket()
	}
	if !s.open {
		s.open = true
		s.idx = idx // cur was zeroed by flushBucket
	}
	s.cur.Add(&ev)
	s.total.Add(&ev)
	if ev.Kind == EvAdmit {
		s.res.observe(float64(ev.Wait))
	}
	if ev.Kind == EvAttempt {
		s.topk.observe(ev.Reason)
	}
	return s.err
}

// flushBucket writes the open bucket's row and resets its state.
func (s *RollupSink) flushBucket() {
	b := s.row.reset()
	if !s.header {
		b.raw("t0_s")
		for _, n := range kindNames {
			b.raw(",").raw(strings.ReplaceAll(n, "-", "_"))
		}
		b.raw(",wait_max_s,energy_j,power_max_w\n")
		s.header = true
	}
	b.fixed(float64(s.idx)*s.bucket, 6)
	for _, c := range s.cur.Counts {
		b.raw(",").int(c)
	}
	b.raw(",").g(float64(s.cur.WaitMax)).raw(",").g(float64(s.cur.Energy)).raw(",").g(float64(s.cur.Peak)).raw("\n")
	if _, err := s.w.Write(b.b); err != nil && s.err == nil {
		s.err = err
	}
	s.open = false
	s.cur = Tally{}
}

// Close flushes the final bucket and writes the summary footer.
func (s *RollupSink) Close() error {
	if s.open {
		s.flushBucket()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# totals: events=%d", s.total.Events)
	for k, n := range s.total.Counts {
		if n > 0 {
			fmt.Fprintf(&b, " %s=%d", Kind(k), n)
		}
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "# wait_s: n=%d p50=%g p90=%g p99=%g max=%g (reservoir %d)\n",
		s.total.Counts[EvAdmit], s.res.quantile(0.50), s.res.quantile(0.90), s.res.quantile(0.99),
		float64(s.total.WaitMax), reservoirSize)
	b.WriteString("# block-reasons:")
	for _, e := range Rank(s.topk.counts) {
		fmt.Fprintf(&b, " %q=%d", e.Key, e.Count)
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(s.w, b.String()); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// reservoir is algorithm-R uniform sampling with an explicitly seeded
// RNG, so the retained sample — and therefore the footer quantiles —
// is a pure function of the observation sequence.
type reservoir struct {
	cap  int
	n    int64
	vals []float64
	rng  *rand.Rand
}

func (r *reservoir) init(cap int) {
	r.cap = cap
	r.vals = make([]float64, 0, cap)
	r.rng = rand.New(rand.NewSource(0x0b5e55ed))
}

func (r *reservoir) observe(v float64) {
	r.n++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(r.cap) {
		r.vals[j] = v
	}
}

// quantile returns the nearest-rank q-quantile, q ∈ (0, 1], of the
// retained sample: its ⌈q·n⌉-th smallest value (0 with no observations).
func (r *reservoir) quantile(q float64) float64 {
	if len(r.vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), r.vals...)
	sort.Float64s(sorted)
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

// topK is a space-saving (Metwally et al.) frequent-items table: at
// most cap distinct keys are held; a new key beyond capacity evicts
// the current minimum and inherits its count as the overestimation
// bound. Ties evict the lexicographically smallest key so the table's
// contents are deterministic.
type topK struct {
	cap    int
	counts map[string]int64
}

func (t *topK) init(cap int) {
	t.cap = cap
	t.counts = make(map[string]int64, cap)
}

func (t *topK) observe(key string) {
	if _, ok := t.counts[key]; ok {
		t.counts[key]++
		return
	}
	if len(t.counts) < t.cap {
		t.counts[key] = 1
		return
	}
	// Evict the minimum (lexicographically smallest among ties).
	var victim string
	var min int64 = -1
	for k, c := range t.counts { //lint:orderinsensitive min selection with total tie-break
		if min < 0 || c < min || (c == min && k < victim) {
			victim, min = k, c
		}
	}
	delete(t.counts, victim)
	t.counts[key] = min + 1
}
