// Package faults describes deterministic fault-injection plans for the
// power-budget scheduler: node failure/repair processes, scripted fault
// events, and the retry and checkpoint/restart rules a killed job runs
// under. A cap clamp is not a fault: it is a window of the budget's cap
// plan (internal/capplan).
//
// A Plan is pure data — it never touches a clock or an RNG itself. The
// stochastic part (per-pool MTBF/MTTR exponential draws) is sampled by
// the consumer from an explicit-source RNG seeded by the run, so the
// same (seed, plan) pair always reproduces the same fault schedule and
// therefore the same bit-identical simulation.
//
// Outside the program a plan has one textual form, the spec string
// ("fail=3@10,mtbf=*:900,…") that ParsePlan reads and String prints.
// Both walk one table of per-kind forms over a flat list of (kind,
// subject, t0, t1, value) records, and one builder turns the records
// into a validated Plan; a knob or pool half named twice is last-wins.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/units"
)

// Scripted is one deterministic fault event: rank Rank fails (or, with
// Repair set, comes back) at time T.
type Scripted struct {
	Rank   int
	T      units.Seconds
	Repair bool
}

// PoolRates gives one pool's stochastic failure process: mean time
// between failures and mean time to repair, both drawn exponentially.
// Pool "*" applies to every pool without an exact-match entry.
type PoolRates struct {
	Pool string
	MTBF units.Seconds
	MTTR units.Seconds
}

// Plan is a complete fault-injection configuration.
type Plan struct {
	// Scripted fail/repair events, applied verbatim.
	Scripted []Scripted
	// Rates are per-pool stochastic failure processes.
	Rates []PoolRates

	// MaxRetries bounds how many times a killed job is resubmitted
	// before it is declared permanently lost.
	MaxRetries int
	// CheckpointEvery is the per-job checkpoint interval in sim time; 0
	// disables checkpointing, so a killed job restarts from the top.
	CheckpointEvery units.Seconds
	// RestartCost is the re-execution surcharge a restarted job pays on
	// top of the work since its last checkpoint (state reload, requeue
	// overhead), priced as extra runtime at the restart's operating
	// point.
	RestartCost units.Seconds
}

// RatesFor returns the failure process for the named pool: an exact
// match wins, then the wildcard "*" entry, then none.
func (p *Plan) RatesFor(pool string) (PoolRates, bool) {
	var wild PoolRates
	haveWild := false
	for _, r := range p.Rates {
		if r.Pool == pool {
			return r, true
		}
		if r.Pool == "*" {
			wild, haveWild = r, true
		}
	}
	return wild, haveWild
}

// minScale is the shortest positive MTBF, MTTR or checkpoint interval
// Validate accepts — the 1 µs floor power.MinInterval sets for sampling.
// A run draws makespan/scale failures, repairs or checkpoints, so
// without a floor a tiny scale stalls the run instead of failing it.
const minScale = units.Microsecond

// Validate checks the plan's internal consistency.
func (p *Plan) Validate() error {
	for _, s := range p.Scripted {
		if s.Rank < 0 {
			return fmt.Errorf("faults: scripted event on negative rank %d", s.Rank)
		}
		if s.T < 0 || !units.Finite(s.T) {
			return fmt.Errorf("faults: scripted event at negative or non-finite time %v", s.T)
		}
	}
	seen := make([]string, 0, len(p.Rates))
	for _, r := range p.Rates {
		if r.Pool == "" {
			return fmt.Errorf("faults: rate entry with empty pool name")
		}
		for _, s := range seen {
			if s == r.Pool {
				return fmt.Errorf("faults: duplicate rate entry for pool %q", r.Pool)
			}
		}
		seen = append(seen, r.Pool)
		if r.MTBF <= 0 || !units.Finite(r.MTBF) {
			return fmt.Errorf("faults: pool %q MTBF %v must be positive and finite", r.Pool, r.MTBF)
		}
		if r.MTTR <= 0 || !units.Finite(r.MTTR) {
			return fmt.Errorf("faults: pool %q MTTR %v must be positive and finite", r.Pool, r.MTTR)
		}
		if r.MTBF < minScale {
			return fmt.Errorf("faults: pool %q MTBF %v below the %v floor", r.Pool, r.MTBF, minScale)
		}
		if r.MTTR < minScale {
			return fmt.Errorf("faults: pool %q MTTR %v below the %v floor", r.Pool, r.MTTR, minScale)
		}
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("faults: negative retry cap %d", p.MaxRetries)
	}
	if p.CheckpointEvery < 0 || !units.Finite(p.CheckpointEvery) {
		return fmt.Errorf("faults: negative or non-finite checkpoint interval %v", p.CheckpointEvery)
	}
	if p.CheckpointEvery > 0 && p.CheckpointEvery < minScale {
		return fmt.Errorf("faults: checkpoint interval %v below the %v floor", p.CheckpointEvery, minScale)
	}
	if p.RestartCost < 0 || !units.Finite(p.RestartCost) {
		return fmt.Errorf("faults: negative or non-finite restart cost %v", p.RestartCost)
	}
	return nil
}

// item is one record of a plan.
type item struct {
	// Kind is fail, repair, mtbf, mttr, retries, ckpt or restart.
	Kind string
	// Subject is the rank (fail, repair) or the pool (mtbf, mttr).
	Subject string
	// T0 is the event time (fail, repair).
	T0 float64
	// Value is seconds (mtbf, mttr, ckpt, restart) or a count (retries).
	Value float64
}

// forms gives each kind's value syntax in the spec grammar: S is the
// subject, 0 the time, V the value, any other byte a literal separator.
var forms = map[string]string{
	"fail": "S@0", "repair": "S@0",
	"mtbf": "S:V", "mttr": "S:V",
	"retries": "V", "ckpt": "V", "restart": "V",
}

// num is the numeric sub-field a form letter names.
func (it *item) num(field byte) *float64 {
	if field == '0' {
		return &it.T0
	}
	return &it.Value
}

// set stores one raw sub-field, trimmed, under its form letter.
func (it *item) set(field byte, raw string) (err error) {
	if raw = strings.TrimSpace(raw); field == 'S' {
		it.Subject = raw
	} else if *it.num(field), err = strconv.ParseFloat(raw, 64); err != nil {
		err = fmt.Errorf("faults: %s item: bad number %q", it.Kind, raw)
	}
	return err
}

// get renders the sub-field under a form letter.
func (it item) get(field byte) string {
	if field == 'S' {
		return it.Subject
	}
	return strconv.FormatFloat(*it.num(field), 'g', -1, 64)
}

// items enumerates the plan as records, zero-valued knobs omitted — the
// list String renders.
func (p *Plan) items() []item {
	var items []item
	for _, s := range p.Scripted {
		kind := "fail"
		if s.Repair {
			kind = "repair"
		}
		items = append(items, item{Kind: kind, Subject: strconv.Itoa(s.Rank), T0: float64(s.T)})
	}
	for _, r := range p.Rates {
		items = append(items,
			item{Kind: "mtbf", Subject: r.Pool, Value: float64(r.MTBF)},
			item{Kind: "mttr", Subject: r.Pool, Value: float64(r.MTTR)})
	}
	for _, knob := range []item{{Kind: "retries", Value: float64(p.MaxRetries)},
		{Kind: "ckpt", Value: float64(p.CheckpointEvery)}, {Kind: "restart", Value: float64(p.RestartCost)}} {
		if knob.Value != 0 {
			items = append(items, knob)
		}
	}
	return items
}

// build turns ParsePlan's records into a validated plan. A repeated knob
// or pool half is last-wins; a pool keeps the position of its first
// mention; presence, not a zero value, marks an mtbf/mttr half.
func build(items []item) (*Plan, error) {
	p := &Plan{}
	var have [][2]bool // per p.Rates entry: mtbf given, mttr given
	for _, it := range items {
		switch it.Kind {
		case "fail", "repair":
			rank, err := strconv.Atoi(it.Subject)
			if err != nil {
				return nil, fmt.Errorf("faults: %s item: bad rank %q", it.Kind, it.Subject)
			}
			p.Scripted = append(p.Scripted, Scripted{Rank: rank, T: units.Seconds(it.T0), Repair: it.Kind == "repair"})
		case "mtbf", "mttr":
			i := 0
			for i < len(p.Rates) && p.Rates[i].Pool != it.Subject {
				i++
			}
			if i == len(p.Rates) {
				p.Rates = append(p.Rates, PoolRates{Pool: it.Subject})
				have = append(have, [2]bool{})
			}
			if it.Kind == "mtbf" {
				p.Rates[i].MTBF, have[i][0] = units.Seconds(it.Value), true
			} else {
				p.Rates[i].MTTR, have[i][1] = units.Seconds(it.Value), true
			}
		case "retries":
			if it.Value != math.Trunc(it.Value) || math.Abs(it.Value) > math.MaxInt32 {
				return nil, fmt.Errorf("faults: retry cap %g is not a whole number", it.Value)
			}
			p.MaxRetries = int(it.Value)
		case "ckpt":
			p.CheckpointEvery = units.Seconds(it.Value)
		case "restart":
			p.RestartCost = units.Seconds(it.Value)
		}
	}
	for i, r := range p.Rates {
		if have[i] != [2]bool{true, true} {
			return nil, fmt.Errorf("faults: pool %q needs both mtbf and mttr", r.Pool)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan in the spec grammar ParsePlan accepts, so
// ParsePlan(p.String()) reproduces p.
func (p *Plan) String() string {
	var b strings.Builder
	for i, it := range p.items() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(it.Kind + "=")
		for _, c := range []byte(forms[it.Kind]) {
			if strings.IndexByte("S0V", c) >= 0 {
				b.WriteString(it.get(c))
			} else {
				b.WriteByte(c)
			}
		}
	}
	return b.String()
}

// ParsePlan parses the compact spec grammar:
//
//	fail=R@T      rank R fails at T seconds
//	repair=R@T    rank R is repaired at T seconds
//	mtbf=POOL:S   pool POOL ("*" = all) draws failures at mean S seconds
//	mttr=POOL:S   pool POOL draws repairs at mean S seconds
//	retries=N     resubmit a killed job at most N times
//	ckpt=S        checkpoint every job each S seconds
//	restart=S     restart surcharge of S seconds re-executed work
//
// Items are comma-separated, e.g.
// "fail=3@10,repair=3@60,mtbf=*:900,mttr=*:120,retries=2,ckpt=30,restart=5";
// whitespace around items, keys and sub-fields is ignored. A pool that
// names an MTBF must also name an MTTR (and vice versa). A knob or pool
// half given twice is last-wins ("retries=1,retries=2" retries twice).
func ParsePlan(spec string) (*Plan, error) {
	items := make([]item, 0, strings.Count(spec, ",")+1)
	for _, field := range strings.Split(spec, ",") {
		if field = strings.TrimSpace(field); field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		it := item{Kind: strings.TrimSpace(key)}
		form, known := forms[it.Kind]
		if !ok || !known {
			return nil, fmt.Errorf("faults: item %q is not a known key=value", field)
		}
		for i := 0; i < len(form); i += 2 {
			raw := val
			if i+1 < len(form) {
				if raw, val, ok = strings.Cut(val, form[i+1:i+2]); !ok {
					want := strings.NewReplacer("S", "SUBJECT", "0", "T", "V", "VALUE").Replace(form)
					return nil, fmt.Errorf("faults: item %q wants %s=%s", field, it.Kind, want)
				}
			}
			if err := it.set(form[i], raw); err != nil {
				return nil, err
			}
		}
		items = append(items, it)
	}
	return build(items)
}
