// Package faults describes deterministic fault-injection plans for the
// power-budget scheduler: node failure/repair processes, scripted fault
// events, and transient power emergencies that slam the effective cap
// below the configured budget timeline.
//
// A Plan is pure data — it never touches a clock or an RNG itself. The
// stochastic part (per-pool MTBF/MTTR exponential draws) is sampled by
// the consumer from an explicit-source RNG seeded by the run, so the
// same (seed, plan) pair always reproduces the same fault schedule and
// therefore the same bit-identical simulation. Plans parse from a
// compact spec string and round-trip through String and a CSV file,
// mirroring capplan.Plan's surface so schedrun flags, files and CI
// fixtures treat budget timelines and fault timelines the same way.
package faults

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/capplan"
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

// Emergency is a transient power emergency: over [Start, End) the
// effective cluster cap is clamped to at most Cap watts, regardless of
// what the budget timeline allows.
type Emergency struct {
	Start units.Seconds
	End   units.Seconds
	Cap   units.Watts
}

// Plan is a complete fault-injection configuration.
type Plan struct {
	// Scripted fail/repair events, applied verbatim.
	Scripted []Scripted
	// Rates are per-pool stochastic failure processes.
	Rates []PoolRates
	// Emergencies clamp the effective cap for their windows.
	Emergencies []Emergency

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

// finite reports whether every value is a real number. The range checks
// in Validate are all false for NaN (a NaN MTBF arms failures at NaN, a
// NaN emergency cap clamps nothing), and an infinite time or rate is an
// event that never fires.
func finite[T ~float64](vs ...T) bool {
	for _, v := range vs {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// Validate checks the plan's internal consistency.
func (p *Plan) Validate() error {
	for _, s := range p.Scripted {
		if s.Rank < 0 {
			return fmt.Errorf("faults: scripted event on negative rank %d", s.Rank)
		}
		if s.T < 0 || !finite(s.T) {
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
		if r.MTBF <= 0 || !finite(r.MTBF) {
			return fmt.Errorf("faults: pool %q MTBF %v must be positive and finite", r.Pool, r.MTBF)
		}
		if r.MTTR <= 0 || !finite(r.MTTR) {
			return fmt.Errorf("faults: pool %q MTTR %v must be positive and finite", r.Pool, r.MTTR)
		}
	}
	for _, e := range p.Emergencies {
		if !finite(e.Start, e.End) || !finite(e.Cap) {
			return fmt.Errorf("faults: emergency [%v,%v) at %v W has a non-finite bound or cap", e.Start, e.End, e.Cap)
		}
		if e.Start < 0 {
			return fmt.Errorf("faults: emergency starting at negative time %v", e.Start)
		}
		if e.End <= e.Start {
			return fmt.Errorf("faults: emergency window [%v,%v) is empty", e.Start, e.End)
		}
		if e.Cap <= 0 {
			return fmt.Errorf("faults: emergency cap %v W must be positive", e.Cap)
		}
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("faults: negative retry cap %d", p.MaxRetries)
	}
	if p.CheckpointEvery < 0 || !finite(p.CheckpointEvery) {
		return fmt.Errorf("faults: negative or non-finite checkpoint interval %v", p.CheckpointEvery)
	}
	if p.RestartCost < 0 || !finite(p.RestartCost) {
		return fmt.Errorf("faults: negative or non-finite restart cost %v", p.RestartCost)
	}
	return nil
}

// EffectiveCaps composes the plan's emergencies over a budget timeline:
// the returned plan's cap at any instant is min(base cap, every active
// emergency cap). With no emergencies the base plan is returned
// unchanged (same pointer), so the no-fault path keeps its exact object
// identity. base must be non-nil; callers without a timeline wrap their
// constant cap in capplan.Constant first.
func (p *Plan) EffectiveCaps(base *capplan.Plan) (*capplan.Plan, error) {
	if len(p.Emergencies) == 0 {
		return base, nil
	}
	// The composed timeline's breakpoints are the base plan's segment
	// starts plus every emergency boundary.
	cuts := []units.Seconds{0} // Breakpoints omits the t=0 segment start
	cuts = append(cuts, base.Breakpoints()...)
	for _, e := range p.Emergencies {
		cuts = append(cuts, e.Start, e.End)
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	type seg struct {
		start units.Seconds
		cap   units.Watts
	}
	var segs []seg
	for _, t := range cuts {
		if t < 0 {
			continue
		}
		if len(segs) > 0 && segs[len(segs)-1].start == t {
			continue // dedup
		}
		cap := base.CapAt(t)
		for _, e := range p.Emergencies {
			if e.Start <= t && t < e.End && e.Cap < cap {
				cap = e.Cap
			}
		}
		// Merge with the previous segment when the cap is unchanged.
		if len(segs) > 0 && segs[len(segs)-1].cap == cap {
			continue
		}
		segs = append(segs, seg{start: t, cap: cap})
	}
	out := make([]capplan.Segment, len(segs))
	for i, s := range segs {
		out[i] = capplan.Segment{Start: s.start, Cap: s.cap}
	}
	return capplan.Steps(out...)
}

// String renders the plan in the compact spec grammar ParsePlan accepts:
// comma-separated key=value items, zero-valued knobs omitted, so
// ParsePlan(p.String()) reproduces p.
func (p *Plan) String() string {
	var parts []string
	for _, s := range p.Scripted {
		key := "fail"
		if s.Repair {
			key = "repair"
		}
		parts = append(parts, fmt.Sprintf("%s=%d@%g", key, s.Rank, float64(s.T)))
	}
	for _, r := range p.Rates {
		parts = append(parts, fmt.Sprintf("mtbf=%s:%g", r.Pool, float64(r.MTBF)))
		parts = append(parts, fmt.Sprintf("mttr=%s:%g", r.Pool, float64(r.MTTR)))
	}
	for _, e := range p.Emergencies {
		parts = append(parts, fmt.Sprintf("emer=%g-%g:%g", float64(e.Start), float64(e.End), float64(e.Cap)))
	}
	if p.MaxRetries != 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", p.MaxRetries))
	}
	if p.CheckpointEvery != 0 {
		parts = append(parts, fmt.Sprintf("ckpt=%g", float64(p.CheckpointEvery)))
	}
	if p.RestartCost != 0 {
		parts = append(parts, fmt.Sprintf("restart=%g", float64(p.RestartCost)))
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the compact spec grammar:
//
//	fail=R@T      rank R fails at T seconds
//	repair=R@T    rank R is repaired at T seconds
//	mtbf=POOL:S   pool POOL ("*" = all) draws failures at mean S seconds
//	mttr=POOL:S   pool POOL draws repairs at mean S seconds
//	emer=T0-T1:W  power emergency: effective cap ≤ W over [T0, T1)
//	retries=N     resubmit a killed job at most N times
//	ckpt=S        checkpoint every job each S seconds
//	restart=S     restart surcharge of S seconds re-executed work
//
// Items are comma-separated, e.g.
// "fail=3@10,repair=3@60,mtbf=*:900,mttr=*:120,emer=20-40:600,retries=2,ckpt=30,restart=5".
// A pool that names an MTBF must also name an MTTR (and vice versa).
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	// mtbf/mttr arrive as separate items; pair them up per pool.
	type half struct {
		mtbf, mttr units.Seconds
	}
	pools := []string{}
	halves := map[string]*half{}
	getHalf := func(pool string) *half {
		if h, ok := halves[pool]; ok {
			return h
		}
		h := &half{}
		halves[pool] = h
		pools = append(pools, pool)
		return h
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("faults: item %q is not key=value", item)
		}
		switch key {
		case "fail", "repair":
			rs, ts, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: %s=%q wants RANK@T", key, val)
			}
			rank, err := strconv.Atoi(rs)
			if err != nil {
				return nil, fmt.Errorf("faults: %s=%q: bad rank: %v", key, val, err)
			}
			t, err := strconv.ParseFloat(ts, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: %s=%q: bad time: %v", key, val, err)
			}
			p.Scripted = append(p.Scripted, Scripted{Rank: rank, T: units.Seconds(t), Repair: key == "repair"})
		case "mtbf", "mttr":
			pool, ss, ok := strings.Cut(val, ":")
			if !ok || pool == "" {
				return nil, fmt.Errorf("faults: %s=%q wants POOL:SECONDS", key, val)
			}
			s, err := strconv.ParseFloat(ss, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: %s=%q: bad seconds: %v", key, val, err)
			}
			h := getHalf(pool)
			if key == "mtbf" {
				h.mtbf = units.Seconds(s)
			} else {
				h.mttr = units.Seconds(s)
			}
		case "emer":
			win, ws, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: emer=%q wants T0-T1:WATTS", val)
			}
			t0s, t1s, ok := strings.Cut(win, "-")
			if !ok {
				return nil, fmt.Errorf("faults: emer=%q wants T0-T1:WATTS", val)
			}
			t0, err := strconv.ParseFloat(t0s, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: emer=%q: bad start: %v", val, err)
			}
			t1, err := strconv.ParseFloat(t1s, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: emer=%q: bad end: %v", val, err)
			}
			w, err := strconv.ParseFloat(ws, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: emer=%q: bad watts: %v", val, err)
			}
			p.Emergencies = append(p.Emergencies, Emergency{Start: units.Seconds(t0), End: units.Seconds(t1), Cap: units.Watts(w)})
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("faults: retries=%q: %v", val, err)
			}
			p.MaxRetries = n
		case "ckpt":
			s, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: ckpt=%q: %v", val, err)
			}
			p.CheckpointEvery = units.Seconds(s)
		case "restart":
			s, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: restart=%q: %v", val, err)
			}
			p.RestartCost = units.Seconds(s)
		default:
			return nil, fmt.Errorf("faults: unknown item key %q", key)
		}
	}
	for _, pool := range pools {
		h := halves[pool]
		if h.mtbf == 0 || h.mttr == 0 {
			return nil, fmt.Errorf("faults: pool %q needs both mtbf and mttr", pool)
		}
		p.Rates = append(p.Rates, PoolRates{Pool: pool, MTBF: h.mtbf, MTTR: h.mttr})
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// csvHeader is the canonical column set of the CSV form.
const csvHeader = "kind,subject,t0_s,t1_s,value"

// WriteCSV renders the plan as CSV, one row per item:
//
//	kind      subject  t0_s  t1_s  value
//	fail      rank     t     —     —
//	repair    rank     t     —     —
//	rates     pool     —     —     mtbf, then a second mttr row
//	emergency —        t0    t1    watts
//	retries   —        —     —     n
//	ckpt      —        —     —     seconds
//	restart   —        —     —     seconds
//
// ReadCSV(WriteCSV(p)) reproduces p.
func (p *Plan) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if err := cw.Write(strings.Split(csvHeader, ",")); err != nil {
		return err
	}
	rows := [][]string{}
	for _, s := range p.Scripted {
		kind := "fail"
		if s.Repair {
			kind = "repair"
		}
		rows = append(rows, []string{kind, strconv.Itoa(s.Rank), g(float64(s.T)), "", ""})
	}
	for _, r := range p.Rates {
		rows = append(rows, []string{"mtbf", r.Pool, "", "", g(float64(r.MTBF))})
		rows = append(rows, []string{"mttr", r.Pool, "", "", g(float64(r.MTTR))})
	}
	for _, e := range p.Emergencies {
		rows = append(rows, []string{"emergency", "", g(float64(e.Start)), g(float64(e.End)), g(float64(e.Cap))})
	}
	if p.MaxRetries != 0 {
		rows = append(rows, []string{"retries", "", "", "", strconv.Itoa(p.MaxRetries)})
	}
	if p.CheckpointEvery != 0 {
		rows = append(rows, []string{"ckpt", "", "", "", g(float64(p.CheckpointEvery))})
	}
	if p.RestartCost != 0 {
		rows = append(rows, []string{"restart", "", "", "", g(float64(p.RestartCost))})
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the WriteCSV form. The header row is recognised and
// skipped when present.
func ReadCSV(r io.Reader) (*Plan, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	cr.TrimLeadingSpace = true
	p := &Plan{}
	type half struct {
		mtbf, mttr units.Seconds
	}
	pools := []string{}
	halves := map[string]*half{}
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("faults: csv: %v", err)
		}
		if first {
			first = false
			if strings.EqualFold(rec[0], "kind") {
				continue
			}
		}
		num := func(i int, what string) (float64, error) {
			v, err := strconv.ParseFloat(rec[i], 64)
			if err != nil {
				return 0, fmt.Errorf("faults: csv %s row: bad %s %q", rec[0], what, rec[i])
			}
			return v, nil
		}
		switch rec[0] {
		case "fail", "repair":
			rank, err := strconv.Atoi(rec[1])
			if err != nil {
				return nil, fmt.Errorf("faults: csv %s row: bad rank %q", rec[0], rec[1])
			}
			t, err := num(2, "time")
			if err != nil {
				return nil, err
			}
			p.Scripted = append(p.Scripted, Scripted{Rank: rank, T: units.Seconds(t), Repair: rec[0] == "repair"})
		case "mtbf", "mttr":
			if rec[1] == "" {
				return nil, fmt.Errorf("faults: csv %s row without a pool", rec[0])
			}
			v, err := num(4, "seconds")
			if err != nil {
				return nil, err
			}
			h, ok := halves[rec[1]]
			if !ok {
				h = &half{}
				halves[rec[1]] = h
				pools = append(pools, rec[1])
			}
			if rec[0] == "mtbf" {
				h.mtbf = units.Seconds(v)
			} else {
				h.mttr = units.Seconds(v)
			}
		case "emergency":
			t0, err := num(2, "start")
			if err != nil {
				return nil, err
			}
			t1, err := num(3, "end")
			if err != nil {
				return nil, err
			}
			w, err := num(4, "watts")
			if err != nil {
				return nil, err
			}
			p.Emergencies = append(p.Emergencies, Emergency{Start: units.Seconds(t0), End: units.Seconds(t1), Cap: units.Watts(w)})
		case "retries":
			n, err := strconv.Atoi(rec[4])
			if err != nil {
				return nil, fmt.Errorf("faults: csv retries row: bad count %q", rec[4])
			}
			p.MaxRetries = n
		case "ckpt":
			v, err := num(4, "seconds")
			if err != nil {
				return nil, err
			}
			p.CheckpointEvery = units.Seconds(v)
		case "restart":
			v, err := num(4, "seconds")
			if err != nil {
				return nil, err
			}
			p.RestartCost = units.Seconds(v)
		default:
			return nil, fmt.Errorf("faults: csv: unknown kind %q", rec[0])
		}
	}
	for _, pool := range pools {
		h := halves[pool]
		if h.mtbf == 0 || h.mttr == 0 {
			return nil, fmt.Errorf("faults: csv: pool %q needs both mtbf and mttr rows", pool)
		}
		p.Rates = append(p.Rates, PoolRates{Pool: pool, MTBF: h.mtbf, MTTR: h.mttr})
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
