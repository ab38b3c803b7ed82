package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

func testPlan() *Plan {
	return &Plan{
		Scripted: []Scripted{
			{Rank: 3, T: 10},
			{Rank: 3, T: 60, Repair: true},
			{Rank: 7, T: 25},
		},
		Rates: []PoolRates{
			{Pool: "systemg", MTBF: 900, MTTR: 120},
			{Pool: "*", MTBF: 3600, MTTR: 60},
		},
		MaxRetries:      2,
		CheckpointEvery: 30,
		RestartCost:     5,
	}
}

func TestSpecRoundTrip(t *testing.T) {
	p := testPlan()
	spec := p.String()
	got, err := ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip:\n got %+v\nwant %+v\nspec %q", got, p, spec)
	}
	// And the render is a fixed point.
	if got.String() != spec {
		t.Fatalf("String not canonical: %q != %q", got.String(), spec)
	}
}

func TestParsePlanGrammar(t *testing.T) {
	p, err := ParsePlan("fail=3@10,repair=3@60,mtbf=*:900,mttr=*:120,retries=2,ckpt=30,restart=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scripted) != 2 || p.Scripted[0].Rank != 3 || p.Scripted[1].Repair != true {
		t.Fatalf("scripted = %+v", p.Scripted)
	}
	r, ok := p.RatesFor("anything")
	if !ok || r.MTBF != 900 || r.MTTR != 120 {
		t.Fatalf("wildcard rates = %+v ok=%v", r, ok)
	}
	if p.MaxRetries != 2 || p.CheckpointEvery != 30 || p.RestartCost != 5 {
		t.Fatalf("knobs = %+v", p)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1",
		"fail=3",            // missing @T
		"fail=x@1",          // bad rank
		"fail=-1@1",         // negative rank
		"fail=1@-2",         // negative time
		"mtbf=:900",         // empty pool
		"mtbf=a:900",        // mtbf without mttr
		"mttr=a:120",        // mttr without mtbf
		"mtbf=a:0,mttr=a:1", // non-positive MTBF
		"emer=1-2:700",      // a cap clamp is a cap-plan window, not a fault
		"retries=-1",
		"ckpt=-1",
		"restart=-1",
		// Non-finite values parse as floats but are no schedule.
		"fail=1@NaN",
		"repair=1@Inf",
		"mtbf=*:NaN,mttr=*:1",
		"mtbf=*:1,mttr=*:NaN",
		"mtbf=*:Inf,mttr=*:1",
		"ckpt=NaN",
		"restart=Inf",
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid spec", spec)
		}
	}
}

func TestRatesForExactBeatsWildcard(t *testing.T) {
	p := testPlan()
	r, ok := p.RatesFor("systemg")
	if !ok || r.MTBF != 900 {
		t.Fatalf("exact match rates = %+v ok=%v", r, ok)
	}
	r, ok = p.RatesFor("dori")
	if !ok || r.MTBF != 3600 {
		t.Fatalf("wildcard rates = %+v ok=%v", r, ok)
	}
	empty := &Plan{}
	if _, ok := empty.RatesFor("x"); ok {
		t.Fatal("empty plan returned rates")
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	nan, inf := units.Seconds(math.NaN()), units.Seconds(math.Inf(1))
	bad := []*Plan{
		{Scripted: []Scripted{{Rank: -1, T: 0}}},
		{Scripted: []Scripted{{Rank: 0, T: -1}}},
		{Rates: []PoolRates{{Pool: "", MTBF: 1, MTTR: 1}}},
		{Rates: []PoolRates{{Pool: "a", MTBF: 1, MTTR: 1}, {Pool: "a", MTBF: 2, MTTR: 2}}},
		{Rates: []PoolRates{{Pool: "a", MTBF: 0, MTTR: 1}}},
		{Rates: []PoolRates{{Pool: "a", MTBF: 1, MTTR: 0}}},
		{MaxRetries: -1},
		{CheckpointEvery: -1},
		{RestartCost: -1},
		{Scripted: []Scripted{{Rank: 0, T: nan}}},
		{Scripted: []Scripted{{Rank: 0, T: inf}}},
		{Rates: []PoolRates{{Pool: "a", MTBF: nan, MTTR: 1}}},
		{Rates: []PoolRates{{Pool: "a", MTBF: 1, MTTR: nan}}},
		{Rates: []PoolRates{{Pool: "a", MTBF: inf, MTTR: 1}}},
		{CheckpointEvery: nan},
		{RestartCost: inf},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated: %+v", i, p)
		}
	}
	if err := testPlan().Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

// TestTimescaleFloor: a positive MTBF, MTTR or checkpoint interval below
// 1 µs is rejected both by Validate and by the spec string, because a
// run draws makespan/scale events from it. The floor itself, a zero checkpoint
// interval (off) and any restart cost stay legal.
func TestTimescaleFloor(t *testing.T) {
	for _, c := range []struct {
		plan Plan
		ok   bool
	}{
		{Plan{Rates: []PoolRates{{Pool: "*", MTBF: 1e-300, MTTR: 1}}}, false},
		{Plan{Rates: []PoolRates{{Pool: "*", MTBF: 1, MTTR: 1e-300}}}, false},
		{Plan{Rates: []PoolRates{{Pool: "dori", MTBF: 9.99e-7, MTTR: 1}}}, false},
		{Plan{CheckpointEvery: 1e-300}, false},
		{Plan{CheckpointEvery: 1e-9}, false},
		{Plan{Rates: []PoolRates{{Pool: "*", MTBF: 1e-6, MTTR: 1e-6}}, CheckpointEvery: 1e-6}, true},
		{Plan{CheckpointEvery: 0, RestartCost: 0}, true},
		{Plan{RestartCost: 1e-300}, true},
	} {
		_, parseErr := ParsePlan(c.plan.String())
		for _, err := range []error{c.plan.Validate(), parseErr} {
			if (err == nil) != c.ok {
				t.Errorf("%q: error %v, want ok=%v", c.plan.String(), err, c.ok)
			} else if err != nil && !strings.Contains(err.Error(), "below the 1µs floor") {
				t.Errorf("%q: error %q does not name the floor", c.plan.String(), err)
			}
		}
	}
}

// TestGrammarEdges pins what the single builder decides: presence, not
// zero, marks an mtbf/mttr half; whitespace around keys, values and
// sub-fields is ignored; a repeated knob or half is last-wins.
func TestGrammarEdges(t *testing.T) {
	if _, err := ParsePlan("mtbf=*:0,mttr=*:1"); err == nil || !strings.Contains(err.Error(), "MTBF 0s must be positive") {
		t.Errorf("a zero MTBF is a present, invalid half: got %v", err)
	}
	spaced, err := ParsePlan(" fail = 3 @ 1 , mtbf= * : 900 ,mttr=*: 120, restart = 0.5 ,retries= 2 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := "fail=3@1,mtbf=*:900,mttr=*:120,retries=2,restart=0.5"; spaced.String() != want {
		t.Errorf("spaced spec = %q, want %q", spaced, want)
	}
	last, err := ParsePlan("retries=1,mtbf=*:5,mttr=*:1,ckpt=3,retries=2,mtbf=*:7,ckpt=4")
	if err != nil {
		t.Fatal(err)
	}
	if want := "mtbf=*:7,mttr=*:1,retries=2,ckpt=4"; last.String() != want {
		t.Errorf("last-wins spec = %q, want %q", last, want)
	}
	if _, err := ParsePlan("retries=2.5"); err == nil {
		t.Error("a fractional retry cap parsed")
	}
	// Sub-1e-4 values render with an exponent and read back exactly.
	tiny, err := ParsePlan("fail=1@0.00001,restart=0.00002")
	if err != nil {
		t.Fatal(err)
	}
	if back, err := ParsePlan(tiny.String()); err != nil || !reflect.DeepEqual(back, tiny) {
		t.Errorf("tiny plan %q does not round-trip: %v", tiny, err)
	}
}

// TestWithOverrides: items appended to a plan's spec replace its knobs
// and wildcard halves, keep its exact per-pool entries, and pass through
// the same validation — how a plan reruns with another retry cap or
// failure rate without retyping the rest.
func TestWithOverrides(t *testing.T) {
	const base = "fail=0@1,mtbf=*:900,mttr=*:120,mtbf=dori:5,mttr=dori:1,retries=3,ckpt=30"
	got, err := ParsePlan(base + ",mtbf=*:3,mttr=*:0.15,retries=8,restart=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if want := "fail=0@1,mtbf=*:3,mttr=*:0.15,mtbf=dori:5,mttr=dori:1,retries=8,ckpt=30,restart=0.5"; got.String() != want {
		t.Errorf("overridden plan = %q, want %q", got, want)
	}
	for _, bad := range []string{
		"retries=-1", "ckpt=NaN",
		"mtbf=new:5", // a half without its pair
		"bogus=1",
	} {
		if _, err := ParsePlan(base + "," + bad); err == nil {
			t.Errorf("%s appended to the plan accepted", bad)
		}
	}
}

func FuzzParsePlan(f *testing.F) {
	f.Add(testPlan().String())
	f.Add("fail=3@10,repair=3@60,mtbf=*:900,mttr=*:120,retries=2,ckpt=30,restart=5")
	f.Add(" fail = 3 @ 1 ,retries=1,retries=2,restart=0.00001,ckpt=-0")
	f.Add("fail= 3 @1,mtbf=ab:5,mttr=ab:1")
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
