// Package capplan describes time-varying power budgets: piecewise-
// constant cap timelines a power-constrained cluster schedules under.
//
// The paper studies computation under a *fixed* power constraint, but
// real power-constrained clusters run under budgets that move — utility
// demand-response windows, diurnal price signals, carbon-intensity
// curves. A Plan is the timeline contract the scheduler consumes: a
// sorted list of (start, watts) segments, the first at t = 0, each cap
// holding until the next breakpoint and the last holding forever.
//
// Constructors cover the common sources: Constant (the paper's fixed
// cap), Steps (explicit demand-response windows), Diurnal (a day-shaped
// squeeze sampled onto a step grid), and FromSignal (an external price
// or carbon-intensity series mapped to watts through a budget rule).
// A plan's one textual form is the "start:watts,…" list ParsePlan reads
// and String prints; ParseSignal reads an external series in the same
// (time, value) pair grammar.
//
// The scheduler-facing queries are CapAt (the instantaneous budget, the
// violation audit's reference), MinOver (the minimum cap across a time
// span — the admission rule charges a job's power envelope against the
// minimum over its predicted lifetime), and the breakpoint iterator
// Next/Breakpoints (cap edges are scheduling edges: the governor
// throttles ahead of a drop and re-admits on a rise).
package capplan

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/units"
)

// Segment is one piecewise-constant window of a Plan: the cap in force
// from Start until the next segment's start (or forever, for the last).
type Segment struct {
	Start units.Seconds
	Cap   units.Watts
}

// Plan is a piecewise-constant power-budget timeline. The zero Plan is
// invalid; build one with a constructor. Plans are immutable after
// construction unless built with Revisable, whose caps SetCaps may
// raise in place — the federation's budget re-negotiation substrate.
type Plan struct {
	segs []Segment
	// revisable permits SetCaps; consumers must not cache
	// classifications derived from cap values (see IsRevisable).
	revisable bool
}

// Steps builds a plan from explicit segments — demand-response windows.
// Segments must start at t = 0, strictly ascend, and carry positive,
// finite caps.
func Steps(segs ...Segment) (*Plan, error) {
	p := &Plan{segs: append([]Segment(nil), segs...)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Revisable builds a plan like Steps whose segment caps may later be
// raised in place with SetCaps — the substrate for federated budget
// re-negotiation, where un-negotiated future windows start at a
// guaranteed floor and each barrier raises them to their negotiated
// share. Every query reads the caps currently in force; callers own
// the synchronisation contract (the federation only revises while
// every consumer of the plan is paused at a sim-time barrier).
func Revisable(segs ...Segment) (*Plan, error) {
	p, err := Steps(segs...)
	if err != nil {
		return nil, err
	}
	p.revisable = true
	return p, nil
}

// IsRevisable reports whether SetCaps may rewrite this plan's caps. A
// consumer of a revisable plan must not pre-compute decisions from cap
// values that a later revision could invalidate — sched, for example,
// arms its pre-drop throttle edge at every breakpoint of a revisable
// plan instead of only where the construction-time caps show a drop.
func (p *Plan) IsRevisable() bool { return p != nil && p.revisable }

// SetCaps raises the cap of every segment with from ≤ Start < to to
// cap. The window must be segment-aligned: from must be an existing
// segment start, and to must be a later segment start or lie beyond the
// last one. Revisions are raise-only — lowering a cap other consumers
// already admitted work against could manufacture violations after the
// fact, whereas raising a conservative floor never can.
func (p *Plan) SetCaps(from, to units.Seconds, cap units.Watts) error {
	if !p.IsRevisable() {
		return errors.New("capplan: SetCaps on a non-revisable plan")
	}
	if !validCap(cap) {
		return fmt.Errorf("capplan: SetCaps cap %v must be positive and finite", cap)
	}
	if to <= from {
		return fmt.Errorf("capplan: SetCaps window [%v, %v) is empty", from, to)
	}
	lo := sort.Search(len(p.segs), func(i int) bool { return p.segs[i].Start >= from })
	if lo == len(p.segs) || p.segs[lo].Start != from {
		return fmt.Errorf("capplan: SetCaps window start %v is not a segment start", from)
	}
	hi := sort.Search(len(p.segs), func(i int) bool { return p.segs[i].Start >= to })
	if hi < len(p.segs) && p.segs[hi].Start != to {
		return fmt.Errorf("capplan: SetCaps window end %v is not a segment start", to)
	}
	// Validate before mutating so a failed revision leaves the plan
	// untouched.
	for i := lo; i < hi; i++ {
		if cap < p.segs[i].Cap {
			return fmt.Errorf("capplan: SetCaps would lower segment %d (start %v) from %v to %v; revisions are raise-only", i, p.segs[i].Start, p.segs[i].Cap, cap)
		}
	}
	for i := lo; i < hi; i++ {
		p.segs[i].Cap = cap
	}
	return nil
}

// Constant wraps the paper's fixed power constraint as a one-segment
// plan. It panics on a non-positive cap (the scheduler rejects those
// anyway).
func Constant(w units.Watts) *Plan {
	p, err := Steps(Segment{Start: 0, Cap: w})
	if err != nil {
		panic(err)
	}
	return p
}

// diurnalSteps is the grid Diurnal samples one period onto: one window
// per simulated "hour".
const diurnalSteps = 24

// Diurnal builds a day-shaped budget over one period sampled onto a
// 24-step grid: the cap starts at base ("midnight"), dips to base−swing
// at period/2 ("midday", when prices and carbon intensity peak), and
// recovers by the period's end, after which the final window's cap
// holds. Each window carries the curve's value at its midpoint.
func Diurnal(base, swing units.Watts, period units.Seconds) (*Plan, error) {
	if swing < 0 {
		return nil, fmt.Errorf("capplan: negative swing %v", swing)
	}
	if base-swing <= 0 {
		return nil, fmt.Errorf("capplan: swing %v leaves no budget under base %v", swing, base)
	}
	if period <= 0 {
		return nil, fmt.Errorf("capplan: period %v must be positive", period)
	}
	segs := make([]Segment, diurnalSteps)
	for i := range segs {
		mid := (float64(i) + 0.5) / diurnalSteps
		dip := math.Sin(math.Pi * mid)
		segs[i] = Segment{
			Start: units.Seconds(float64(i) / diurnalSteps * float64(period)),
			Cap:   base - units.Watts(float64(swing)*dip*dip),
		}
	}
	return Steps(segs...)
}

// Sample is one point of an external signal — an electricity price or a
// grid carbon intensity — at a time offset.
type Sample struct {
	T     units.Seconds
	Value float64
}

// BudgetRule maps one signal value to a power budget, given the
// signal's observed range [lo, hi] — how a site turns prices or carbon
// intensity into watts.
type BudgetRule func(v, lo, hi float64) units.Watts

// LinearBudget is the proportional demand-response rule: the signal's
// highest value maps to minCap, its lowest to maxCap, linearly in
// between. A flat signal maps to the midpoint.
func LinearBudget(minCap, maxCap units.Watts) BudgetRule {
	return func(v, lo, hi float64) units.Watts {
		if hi <= lo {
			return (minCap + maxCap) / 2
		}
		frac := (v - lo) / (hi - lo)
		return maxCap - units.Watts(frac*float64(maxCap-minCap))
	}
}

// FromSignal converts an external series (prices, carbon intensity)
// into a budget timeline: each sample opens a window whose cap is the
// budget rule applied to its value. Samples must start at t = 0 and
// strictly ascend; violations are reported per sample, naming the
// offending index, so a thousand-point carbon trace pinpoints its one
// bad row instead of failing through the generic Steps error.
func FromSignal(signal []Sample, budget BudgetRule) (*Plan, error) {
	if len(signal) == 0 {
		return nil, errors.New("capplan: empty signal")
	}
	if budget == nil {
		return nil, errors.New("capplan: nil budget rule")
	}
	if err := ValidateSignal(signal); err != nil {
		return nil, err
	}
	lo, hi := signal[0].Value, signal[0].Value
	for _, s := range signal[1:] {
		lo, hi = math.Min(lo, s.Value), math.Max(hi, s.Value)
	}
	segs := make([]Segment, len(signal))
	for i, s := range signal {
		segs[i] = Segment{Start: s.T, Cap: budget(s.Value, lo, hi)}
	}
	return Steps(segs...)
}

// ValidateSignal checks the sample invariants FromSignal (and any
// other consumer of an external series, such as the federation's
// carbon-intensity curves) relies on: the first sample at t = 0, times
// strictly ascending, every time and value finite. Errors name the
// offending sample index.
func ValidateSignal(signal []Sample) error {
	if len(signal) == 0 {
		return errors.New("capplan: empty signal")
	}
	for i, s := range signal {
		if !units.Finite(float64(s.T), s.Value) {
			return fmt.Errorf("capplan: signal sample %d (%v, %g) is not finite", i, s.T, s.Value)
		}
	}
	if signal[0].T != 0 {
		return fmt.Errorf("capplan: signal sample 0 at t=%v, must start at t=0", signal[0].T)
	}
	for i := 1; i < len(signal); i++ {
		switch {
		case signal[i].T == signal[i-1].T:
			return fmt.Errorf("capplan: signal sample %d duplicates sample %d's time %v", i, i-1, signal[i].T)
		case signal[i].T < signal[i-1].T:
			return fmt.Errorf("capplan: signal sample %d at t=%v is out of order (sample %d is at t=%v)", i, signal[i].T, i-1, signal[i-1].T)
		}
	}
	return nil
}

// validCap reports whether w can bound a schedule: positive and finite.
// NaN fails every comparison an admission or audit would make against
// it, so a NaN cap would silently run uncapped.
func validCap(w units.Watts) bool {
	return w > 0 && !math.IsInf(float64(w), 1)
}

// Validate checks the timeline invariants every query relies on: at
// least one segment, the first at t = 0, starts finite and strictly
// ascending, caps positive and finite.
func (p *Plan) Validate() error {
	if p == nil || len(p.segs) == 0 {
		return errors.New("capplan: plan has no segments")
	}
	if p.segs[0].Start != 0 {
		return fmt.Errorf("capplan: plan must start at t=0, got %v", p.segs[0].Start)
	}
	for i, sg := range p.segs {
		if !validCap(sg.Cap) {
			return fmt.Errorf("capplan: segment %d cap %v must be positive and finite", i, sg.Cap)
		}
		// !(a > b), not a <= b, so a NaN start fails too.
		if i > 0 && (!(sg.Start > p.segs[i-1].Start) || math.IsInf(float64(sg.Start), 1)) {
			return fmt.Errorf("capplan: segment %d start %v does not ascend past %v to a finite time", i, sg.Start, p.segs[i-1].Start)
		}
	}
	return nil
}

// index returns the segment in force at time t (times before the plan
// clamp to the first segment).
func (p *Plan) index(t units.Seconds) int {
	if len(p.segs) == 1 {
		return 0 // a constant cap: every scheduler query lands here
	}
	// The first segment whose start exceeds t ends the search.
	i := sort.Search(len(p.segs), func(i int) bool { return p.segs[i].Start > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// CapAt returns the budget in force at time t — the reference the
// violation audit compares each power sample against.
func (p *Plan) CapAt(t units.Seconds) units.Watts {
	return p.segs[p.index(t)].Cap
}

// WindowAt returns the index and segment of the budget window in force
// at time t — the labelling query observers use to attribute an event
// to a plan window (the telemetry plan-edge events carry it).
func (p *Plan) WindowAt(t units.Seconds) (int, Segment) {
	i := p.index(t)
	return i, p.segs[i]
}

// MinOver returns the minimum cap anywhere in [t0, t1] (inclusive of
// both ends; a reversed interval collapses to CapAt(t0)). Admission
// charges a job's conservative power envelope against the minimum over
// its predicted lifetime, so a job never straddles a budget window it
// cannot fit.
func (p *Plan) MinOver(t0, t1 units.Seconds) units.Watts {
	i := p.index(t0)
	min := p.segs[i].Cap
	for i++; i < len(p.segs) && p.segs[i].Start <= t1; i++ {
		if p.segs[i].Cap < min {
			min = p.segs[i].Cap
		}
	}
	return min
}

// MaxFrom returns the highest cap anywhere on the timeline from time t
// on — the best budget a waiting job could ever see. A scheduler
// compares it against the budget in force to decide whether waiting for
// a breakpoint can beat a degraded admission now.
func (p *Plan) MaxFrom(t units.Seconds) units.Watts {
	i := p.index(t)
	max := p.segs[i].Cap
	for _, sg := range p.segs[i+1:] {
		if sg.Cap > max {
			max = sg.Cap
		}
	}
	return max
}

// MinCap returns the lowest cap anywhere on the timeline.
func (p *Plan) MinCap() units.Watts { return p.MinOver(0, units.Seconds(math.Inf(1))) }

// End returns the start of the final segment — after it the cap is
// constant forever, so a scheduler that cannot place a job beyond End
// never will.
func (p *Plan) End() units.Seconds { return p.segs[len(p.segs)-1].Start }

// Segments returns a copy of the timeline.
func (p *Plan) Segments() []Segment { return append([]Segment(nil), p.segs...) }

// Breakpoints returns the times at which the cap changes (every segment
// start after t = 0).
func (p *Plan) Breakpoints() []units.Seconds {
	bps := make([]units.Seconds, 0, len(p.segs)-1)
	for _, sg := range p.segs[1:] {
		bps = append(bps, sg.Start)
	}
	return bps
}

// Next iterates breakpoints: it returns the first cap change strictly
// after t and the cap that takes force there, or ok = false when the
// timeline is flat from t on.
func (p *Plan) Next(t units.Seconds) (at units.Seconds, cap units.Watts, ok bool) {
	i := p.index(t) + 1
	if i >= len(p.segs) {
		return 0, 0, false
	}
	return p.segs[i].Start, p.segs[i].Cap, true
}

// String renders the timeline in the "start:watts,start:watts" form
// ParsePlan accepts, e.g. "0:2500,3600:1500,7200:2500".
func (p *Plan) String() string {
	parts := make([]string, len(p.segs))
	for i, sg := range p.segs {
		parts[i] = fmt.Sprintf("%g:%g", float64(sg.Start), float64(sg.Cap))
	}
	return strings.Join(parts, ",")
}

// pairs reads the comma-separated "t:value" list grammar — the one
// reader under ParsePlan and ParseSignal.
func pairs(s string) ([]Sample, error) {
	var out []Sample
	for _, part := range strings.Split(s, ",") {
		t, v, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("capplan: %q in %q is not t:value", strings.TrimSpace(part), s)
		}
		tf, err0 := strconv.ParseFloat(strings.TrimSpace(t), 64)
		vf, err1 := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err0 != nil || err1 != nil {
			return nil, fmt.Errorf("capplan: bad numbers in sample %q, %q", t, v)
		}
		out = append(out, Sample{T: units.Seconds(tf), Value: vf})
	}
	return out, nil
}

// ParsePlan builds a plan from a comma-separated "start:watts" list,
// e.g. "0:2500,3600:1500,7200:2500" — a 2500 W budget squeezed to
// 1500 W between hours one and two.
func ParsePlan(s string) (*Plan, error) {
	ps, err := pairs(s)
	if err != nil {
		return nil, err
	}
	segs := make([]Segment, len(ps))
	for i, smp := range ps {
		segs[i] = Segment{Start: smp.T, Cap: units.Watts(smp.Value)}
	}
	return Steps(segs...)
}

// ParseSignal reads an external series in the same "t:value,…" grammar
// (a carbon-intensity curve, a price trace) and validates it.
func ParseSignal(s string) ([]Sample, error) {
	signal, err := pairs(s)
	if err != nil {
		return nil, err
	}
	return signal, ValidateSignal(signal)
}
