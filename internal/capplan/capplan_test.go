package capplan

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

func steps(t *testing.T, segs ...Segment) *Plan {
	t.Helper()
	p, err := Steps(segs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The demand-response squeeze every scheduler test leans on: 2500 W,
// dropped to 1500 W for the second hour.
func squeeze(t *testing.T) *Plan {
	return steps(t,
		Segment{Start: 0, Cap: 2500},
		Segment{Start: 3600, Cap: 1500},
		Segment{Start: 7200, Cap: 2500},
	)
}

func TestCapAt(t *testing.T) {
	p := squeeze(t)
	cases := []struct {
		t    units.Seconds
		want units.Watts
	}{
		{-5, 2500}, // before the plan clamps to the first window
		{0, 2500},
		{3599.999, 2500},
		{3600, 1500}, // a breakpoint takes force at its own instant
		{7199, 1500},
		{7200, 2500},
		{1e9, 2500}, // the last window holds forever
	}
	for _, c := range cases {
		if got := p.CapAt(c.t); got != c.want {
			t.Errorf("CapAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestMinOver(t *testing.T) {
	p := squeeze(t)
	cases := []struct {
		t0, t1 units.Seconds
		want   units.Watts
	}{
		{0, 100, 2500},       // entirely inside the first window
		{0, 3600, 1500},      // inclusive right end sees the drop
		{0, 3599.9, 2500},    // … but not before the breakpoint
		{3600, 7000, 1500},   // inside the squeeze
		{3000, 8000, 1500},   // spanning the squeeze
		{7200, 1e6, 2500},    // after recovery, forever
		{5000, 4000, 1500},   // reversed interval collapses to CapAt(t0)
		{100000, 1e9, 2500},  // beyond the plan
		{-10, 0.0001, 2500},  // clamped start
		{3599, 3600.0, 1500}, // boundary again
	}
	for _, c := range cases {
		if got := p.MinOver(c.t0, c.t1); got != c.want {
			t.Errorf("MinOver(%v, %v) = %v, want %v", c.t0, c.t1, got, c.want)
		}
	}
}

func TestConstantAndExtremes(t *testing.T) {
	p := Constant(2000)
	if p.CapAt(0) != 2000 || p.CapAt(1e9) != 2000 || p.MinOver(0, 1e9) != 2000 {
		t.Fatal("constant plan must be flat")
	}
	if len(p.Breakpoints()) != 0 || p.End() != 0 {
		t.Fatal("constant plan has no breakpoints")
	}
	sq := squeeze(t)
	if sq.MinCap() != 1500 || sq.MaxFrom(0) != 2500 {
		t.Fatalf("extremes: min %v max %v", sq.MinCap(), sq.MaxFrom(0))
	}
}

func TestMaxFrom(t *testing.T) {
	// A plan that only decays: the best remaining budget shrinks as
	// windows pass.
	p := steps(t,
		Segment{Start: 0, Cap: 2500},
		Segment{Start: 10, Cap: 1500},
		Segment{Start: 20, Cap: 2000},
	)
	cases := []struct {
		t    units.Seconds
		want units.Watts
	}{
		{0, 2500},
		{10, 2000},  // the 2500 W window is behind us
		{15, 2000},  // mid-squeeze, recovery ahead
		{20, 2000},  // flat forever
		{1e6, 2000}, // beyond the plan
		{-5, 2500},  // clamped
	}
	for _, c := range cases {
		if got := p.MaxFrom(c.t); got != c.want {
			t.Errorf("MaxFrom(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestBreakpointIterator(t *testing.T) {
	p := squeeze(t)
	bps := p.Breakpoints()
	if len(bps) != 2 || bps[0] != 3600 || bps[1] != 7200 {
		t.Fatalf("breakpoints %v", bps)
	}
	at, cap, ok := p.Next(0)
	if !ok || at != 3600 || cap != 1500 {
		t.Fatalf("Next(0) = %v %v %v", at, cap, ok)
	}
	// A breakpoint's own instant already carries the new cap, so the next
	// change is the following one.
	at, cap, ok = p.Next(3600)
	if !ok || at != 7200 || cap != 2500 {
		t.Fatalf("Next(3600) = %v %v %v", at, cap, ok)
	}
	if _, _, ok := p.Next(7200); ok {
		t.Fatal("no breakpoint after the final segment")
	}
}

func TestValidation(t *testing.T) {
	bad := [][]Segment{
		{},                      // empty
		{{Start: 10, Cap: 100}}, // does not start at 0
		{{Start: 0, Cap: 0}},    // non-positive cap
		{{Start: 0, Cap: 100}, {Start: 0, Cap: 90}},  // non-ascending
		{{Start: 0, Cap: 100}, {Start: -1, Cap: 90}}, // descending
		// Non-finite values: NaN fails every comparison a scheduler would
		// make against it, so a NaN cap runs uncapped.
		{{Start: 0, Cap: units.Watts(math.NaN())}},
		{{Start: 0, Cap: units.Watts(math.Inf(1))}},
		{{Start: 0, Cap: units.Watts(math.Inf(-1))}},
		{{Start: 0, Cap: 100}, {Start: 10, Cap: units.Watts(math.NaN())}},
		{{Start: units.Seconds(math.NaN()), Cap: 100}},
		{{Start: 0, Cap: 100}, {Start: units.Seconds(math.NaN()), Cap: 90}},
		{{Start: 0, Cap: 100}, {Start: units.Seconds(math.Inf(1)), Cap: 90}},
	}
	for i, segs := range bad {
		if _, err := Steps(segs...); err == nil {
			t.Errorf("case %d: invalid plan accepted: %v", i, segs)
		}
	}
	// The spec goes through the same check.
	for _, spec := range []string{"0:NaN", "0:+Inf", "0:100,NaN:90", "0:100,Inf:90"} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a non-finite plan", spec)
		}
	}
	nanBudget := func(v, lo, hi float64) units.Watts { return units.Watts(math.NaN()) }
	if _, err := FromSignal([]Sample{{T: 0, Value: 1}}, nanBudget); err == nil {
		t.Error("FromSignal accepted a budget rule returning NaN")
	}
	var nilPlan *Plan
	if nilPlan.Validate() == nil {
		t.Error("nil plan must not validate")
	}
}

func TestDiurnal(t *testing.T) {
	p, err := Diurnal(2500, 1000, 86400)
	if err != nil {
		t.Fatal(err)
	}
	segs := p.Segments()
	if len(segs) != diurnalSteps {
		t.Fatalf("want %d windows, got %d", diurnalSteps, len(segs))
	}
	// Midnight stays near base, midday dips toward base−swing, and every
	// window stays inside [base−swing, base].
	if float64(segs[0].Cap) < 2490 {
		t.Fatalf("midnight window %v should sit near the base", segs[0].Cap)
	}
	mid := segs[diurnalSteps/2].Cap
	if float64(mid) > 1510 {
		t.Fatalf("midday window %v should dip toward base−swing", mid)
	}
	for i, sg := range segs {
		if sg.Cap < 1500 || sg.Cap > 2500 {
			t.Fatalf("window %d cap %v outside [1500, 2500]", i, sg.Cap)
		}
	}
	if _, err := Diurnal(1000, 1000, 3600); err == nil {
		t.Fatal("swing that zeroes the budget must be rejected")
	}
	if _, err := Diurnal(1000, 100, 0); err == nil {
		t.Fatal("non-positive period must be rejected")
	}
}

func TestFromSignal(t *testing.T) {
	// A price series peaking in the middle: the budget rule inverts it.
	signal := []Sample{
		{T: 0, Value: 20},
		{T: 100, Value: 80},
		{T: 200, Value: 50},
	}
	p, err := FromSignal(signal, LinearBudget(1000, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CapAt(0); got != 3000 {
		t.Fatalf("cheapest window should get the full budget, got %v", got)
	}
	if got := p.CapAt(100); got != 1000 {
		t.Fatalf("priciest window should get the floor, got %v", got)
	}
	if got := p.CapAt(200); got != 2000 {
		t.Fatalf("midpoint price maps halfway, got %v", got)
	}
	// A flat signal carries no relative pressure: midpoint budget.
	flat, err := FromSignal([]Sample{{T: 0, Value: 7}}, LinearBudget(1000, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.CapAt(0); got != 2000 {
		t.Fatalf("flat signal maps to the midpoint, got %v", got)
	}
	if _, err := FromSignal(nil, LinearBudget(1, 2)); err == nil {
		t.Fatal("empty signal must be rejected")
	}
	if _, err := FromSignal(signal, nil); err == nil {
		t.Fatal("nil budget rule must be rejected")
	}
}

func TestParseAndStringRoundTrip(t *testing.T) {
	p, err := ParsePlan("0:2500,3600:1500,7200:2500")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "0:2500,3600:1500,7200:2500" {
		t.Fatalf("String() = %q", got)
	}
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != p.String() {
		t.Fatalf("round trip mutated the plan: %q vs %q", back.String(), p.String())
	}
	for _, bad := range []string{"", "10:100", "0:100,abc", "0:0", "0:100,50", "0:100,,200:50"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestHandWrittenSpec pins the spec as an interchange form: a plan built
// in code survives String/ParsePlan, a hand-written spelling prints
// canonically, and a non-numeric cap is rejected.
func TestHandWrittenSpec(t *testing.T) {
	p := squeeze(t)
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Segments(), p.Segments()) {
		t.Fatalf("spec round trip mutated the plan: %q vs %q", back.String(), p.String())
	}
	hand, err := ParsePlan(" 0:900, 10:650.0")
	if err != nil {
		t.Fatal(err)
	}
	if hand.String() != "0:900,10:650" {
		t.Fatalf("hand-written plan prints %q", hand.String())
	}
	if _, err := ParsePlan("0:abc"); err == nil {
		t.Fatal("non-numeric cap must be rejected")
	}
}

func TestValidateSignal(t *testing.T) {
	good := []Sample{{T: 0, Value: 20}, {T: 100, Value: 80}}
	if err := ValidateSignal(good); err != nil {
		t.Fatalf("valid signal rejected: %v", err)
	}
	cases := []struct {
		name   string
		signal []Sample
		want   string
	}{
		{"empty", nil, "empty signal"},
		{"non-zero start", []Sample{{T: 5, Value: 1}}, "sample 0 at t=5"},
		{"duplicate time", []Sample{{T: 0, Value: 1}, {T: 10, Value: 2}, {T: 10, Value: 3}},
			"sample 2 duplicates sample 1"},
		{"out of order", []Sample{{T: 0, Value: 1}, {T: 20, Value: 2}, {T: 10, Value: 3}},
			"sample 2 at t=10s is out of order (sample 1 is at t=20s)"},
		{"NaN value", []Sample{{T: 0, Value: 1}, {T: 10, Value: math.NaN()}}, "sample 1 (10s, NaN) is not finite"},
		{"Inf time", []Sample{{T: 0, Value: 1}, {T: units.Seconds(math.Inf(1)), Value: 2}}, "sample 1 (+Infs, 2) is not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateSignal(tc.signal)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error naming the offending sample: %q", err, tc.want)
			}
			// FromSignal applies the same validation before deriving caps.
			if _, err := FromSignal(tc.signal, LinearBudget(1000, 3000)); err == nil {
				t.Fatalf("FromSignal accepted the invalid signal")
			}
		})
	}
}

// TestFromSignalSpecRoundTrip pins the interchange path for derived
// plans: a signal-driven plan with non-integral caps survives the
// String/ParsePlan round trip bit-exactly.
func TestFromSignalSpecRoundTrip(t *testing.T) {
	signal := []Sample{
		{T: 0, Value: 20},
		{T: 97.25, Value: 45},
		{T: 201.5, Value: 80},
	}
	p, err := FromSignal(signal, LinearBudget(1000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	// The mid sample maps to a non-integral cap — the case %g printing
	// must preserve exactly.
	if got := p.CapAt(97.25); got == units.Watts(float64(int(got))) {
		t.Fatalf("fixture lost its point: cap %v is integral", got)
	}

	reparsed, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(reparsed.Segments()) != len(p.Segments()) {
		t.Fatalf("String round trip changed segment count")
	}
	for i, sg := range reparsed.Segments() {
		if want := p.Segments()[i]; sg != want {
			t.Errorf("String round trip segment %d: %+v, want %+v (bit-exact)", i, sg, want)
		}
	}
}

func TestRevisableSetCaps(t *testing.T) {
	mk := func() *Plan {
		p, err := Revisable(
			Segment{Start: 0, Cap: 1000},
			Segment{Start: 10, Cap: 400},
			Segment{Start: 20, Cap: 1000},
		)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := mk()
	if !p.IsRevisable() {
		t.Fatal("Revisable plan reports IsRevisable() == false")
	}
	if squeeze(t).IsRevisable() {
		t.Fatal("Steps plan reports IsRevisable() == true")
	}

	// A raise over an aligned window lands and is visible to queries.
	if err := p.SetCaps(10, 20, 700); err != nil {
		t.Fatal(err)
	}
	if got := p.CapAt(15); got != 700 {
		t.Fatalf("CapAt(15) = %v after raise to 700", got)
	}
	if got := p.MinOver(0, 30); got != 700 {
		t.Fatalf("MinOver = %v, want 700 after raise", got)
	}
	// Raising the final (open-ended) window: to may sit past the end.
	if err := p.SetCaps(20, 100, 1200); err != nil {
		t.Fatalf("raising the final window: %v", err)
	}
	if got := p.CapAt(25); got != 1200 {
		t.Fatalf("CapAt(25) = %v after raise to 1200", got)
	}

	cases := []struct {
		name string
		do   func(*Plan) error
		want string
	}{
		{"lower", func(p *Plan) error { return p.SetCaps(10, 20, 300) }, "lower"},
		{"unaligned from", func(p *Plan) error { return p.SetCaps(5, 20, 700) }, "window start"},
		{"unaligned to", func(p *Plan) error { return p.SetCaps(10, 15, 700) }, "window end"},
		{"inverted", func(p *Plan) error { return p.SetCaps(20, 10, 700) }, "empty"},
		{"non-positive cap", func(p *Plan) error { return p.SetCaps(10, 20, 0) }, "cap"},
		{"NaN cap", func(p *Plan) error { return p.SetCaps(10, 20, units.Watts(math.NaN())) }, "finite"},
		{"infinite cap", func(p *Plan) error { return p.SetCaps(10, 20, units.Watts(math.Inf(1))) }, "finite"},
		{"non-revisable", func(*Plan) error { return squeeze(t).SetCaps(3600, 7200, 2000) }, "revisable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mk()
			before := p.String()
			err := tc.do(p)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.want)
			}
			if p.String() != before {
				t.Fatalf("failed revision mutated the plan: %q -> %q", before, p.String())
			}
		})
	}
}

// TestParseSignal: the carbon/price series grammar is ParsePlan's
// "t:value" pair list, checked by ValidateSignal instead of Steps — so
// zero and negative values are a signal's business, not a cap's.
func TestParseSignal(t *testing.T) {
	got, err := ParseSignal(" 0:420 , 2: 120,3.5:0")
	if want := []Sample{{T: 0, Value: 420}, {T: 2, Value: 120}, {T: 3.5, Value: 0}}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSignal = %v, %v; want %v", got, err, want)
	}
	for _, bad := range []string{"", "0", "0:1,", "0:x", "5:1", "0:1,0:2", "0:NaN", "0:1,Inf:2"} {
		if _, err := ParseSignal(bad); err == nil {
			t.Errorf("ParseSignal(%q) accepted", bad)
		}
	}
}

func FuzzParsePlan(f *testing.F) {
	f.Add("0:2500,3600:1500,7200:2500")
	f.Add(" 0: 900 ,1e-7:650.5")
	f.Add("0:900,\t1:650.0,2:9e2")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		back, err := ParsePlan(p.String())
		if err != nil || !reflect.DeepEqual(back, p) {
			t.Fatalf("ParsePlan(%q) = %q, which reparses to %v, %v", spec, p, back, err)
		}
	})
}
