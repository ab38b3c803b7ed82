package telemetry

import (
	"sort"

	"repro/internal/units"
)

// numKinds is the size of the Kind taxonomy (kindNames is the
// authoritative list).
const numKinds = len(kindNames)

// Tally is the one fold that counts the event stream. The rollup's
// buckets and totals, traceq's windows and summary, and the metrics
// registry's stream counters each feed events through Add and read the
// same fields, so a kind is counted, and energy, power and waits are
// summed, by one rule everywhere.
type Tally struct {
	// Events counts every event added, whatever its kind.
	Events int64
	// Counts holds the events of each kind, indexed by Kind.
	Counts [numKinds]int64
	// Energy is the sum of finish energies.
	Energy units.Joules
	// Peak is the highest sample or violation power (a violation
	// repeats the power of the sample it audits).
	Peak units.Watts
	// WaitSum and WaitMax are the sum and maximum of admission waits;
	// Counts[EvAdmit] is their number.
	WaitSum, WaitMax units.Seconds

	// waits, when set, also observes every admission wait (the metrics
	// registry's wait histogram).
	waits *Histogram
}

// Add folds one event into the tally.
func (t *Tally) Add(ev *Event) {
	t.Events++
	if int(ev.Kind) < numKinds {
		t.Counts[ev.Kind]++
	}
	switch ev.Kind {
	case EvAdmit:
		t.WaitSum += ev.Wait
		if ev.Wait > t.WaitMax {
			t.WaitMax = ev.Wait
		}
		t.waits.Observe(float64(ev.Wait))
	case EvFinish:
		t.Energy += ev.Energy
	case EvSample, EvViolation:
		if ev.Power > t.Peak {
			t.Peak = ev.Power
		}
	}
}

// Ranked is one entry of a ranked count table.
type Ranked struct {
	Key   string
	Count int64
}

// Rank orders a count table the way every block-reason list prints:
// by count descending, then by key.
func Rank(counts map[string]int64) []Ranked {
	out := make([]Ranked, 0, len(counts))
	for k, c := range counts {
		out = append(out, Ranked{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}
