package fed

// SiteFacts are the per-site constants a SplitPolicy may price when
// dividing one budget window: the site's weight (its rank count) and
// its carbon intensity over the window.
type SiteFacts struct {
	Weight float64
	// Intensity is the site's carbon intensity (gCO₂eq/kWh) over the
	// window; meaningful only when HasCarbon is set.
	Intensity float64
	HasCarbon bool
}

// SplitContext is one budget-window division problem: the per-site
// facts and — when the policy runs between epochs — each site's live
// operating-mix efficiency.
type SplitContext struct {
	// Sites holds one entry per federation site, in site order.
	Sites []SiteFacts
	// MixEE holds each site's sched.Scheduler.MixEE at the epoch end
	// this division runs at, indexed like Sites. Nil when the window is
	// divided at construction time (before any site has run).
	MixEE []float64
}

// SplitPolicy divides the discretionary part of a global budget window
// across sites. Shares returns one non-negative weight per site (the
// federation normalises them); a degenerate return (wrong length, all
// zero) falls back to the static shares. Policies must be pure
// functions of the context — determinism of the whole federation rests
// on it.
type SplitPolicy interface {
	Name() string
	// Static reports that Shares never reads ctx.MixEE, the context's
	// only live input. Static policies are divided fully at
	// construction time: no revisable plans and one epoch, maximum
	// cross-site parallelism.
	Static() bool
	Shares(ctx SplitContext) []float64
}

// staticWeights returns each site's weight, the static-share baseline
// every policy degenerates to.
func staticWeights(sites []SiteFacts) []float64 {
	d := make([]float64, len(sites))
	for i, s := range sites {
		d[i] = s.Weight
	}
	return d
}

// StaticShare divides every window in proportion to site weights —
// the baseline every other policy is measured against.
func StaticShare() SplitPolicy { return staticShare{} }

type staticShare struct{}

func (staticShare) Name() string { return "static-share" }
func (staticShare) Static() bool { return true }
func (staticShare) Shares(ctx SplitContext) []float64 {
	return staticWeights(ctx.Sites)
}

// greedyEEBias keeps an idle site (MixEE 0) fundable: watts routed
// there still buy admissions, just not yet-measurable efficiency.
const greedyEEBias = 0.05

// GreedyEE steers discretionary watts toward the sites whose current
// operating mix buys the most model energy-efficiency per watt:
// shares proportional to weight × (bias + MixEE). It reads live site
// state, so it re-negotiates at every global breakpoint, between
// epochs; before any state exists it divides statically.
func GreedyEE() SplitPolicy { return greedyEE{} }

type greedyEE struct{}

func (greedyEE) Name() string { return "greedy-ee" }
func (greedyEE) Static() bool { return false }
func (greedyEE) Shares(ctx SplitContext) []float64 {
	if ctx.MixEE == nil {
		return staticWeights(ctx.Sites)
	}
	d := make([]float64, len(ctx.Sites))
	for i, s := range ctx.Sites {
		d[i] = s.Weight * (greedyEEBias + ctx.MixEE[i])
	}
	return d
}

// carbonEpsilon regularises the inverse-intensity weighting so a
// hypothetical zero-carbon window cannot absorb the entire
// discretionary budget.
const carbonEpsilon = 1.0

// CarbonMin shifts discretionary watts away from carbon-dirty sites,
// window by window: shares proportional to weight / (intensity + ε)².
// The square sharpens the shift so opposite-phase signals produce a
// clear swing; sites without a signal are priced at the mean intensity
// of the sites that have one (neutral), and with no signals anywhere
// the division is static. Intensity curves are known timelines, so the
// policy is static: every window is divided at construction time.
func CarbonMin() SplitPolicy { return carbonMin{} }

type carbonMin struct{}

func (carbonMin) Name() string { return "carbon-min" }
func (carbonMin) Static() bool { return true }
func (carbonMin) Shares(ctx SplitContext) []float64 {
	var sum float64
	var n int
	for _, s := range ctx.Sites {
		if s.HasCarbon {
			sum += s.Intensity
			n++
		}
	}
	if n == 0 {
		return staticWeights(ctx.Sites)
	}
	mean := sum / float64(n)
	d := make([]float64, len(ctx.Sites))
	for i, s := range ctx.Sites {
		in := mean
		if s.HasCarbon {
			in = s.Intensity
		}
		if in < 0 {
			in = 0
		}
		inv := 1 / (in + carbonEpsilon)
		d[i] = s.Weight * inv * inv
	}
	return d
}

// SplitPolicies returns the built-in budget-split policies by name —
// the registry schedrun -split selects from.
func SplitPolicies() map[string]func() SplitPolicy {
	return map[string]func() SplitPolicy{
		"static-share": StaticShare,
		"greedy-ee":    GreedyEE,
		"carbon-min":   CarbonMin,
	}
}
