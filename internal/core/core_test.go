package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/units"
)

// testParams: tc=1ns, tm=100ns, Ts=10µs, Tb=1ns, ΔPc=20W, ΔPm=10W,
// Psys-idle=100W — round numbers for hand computation.
func testParams() machine.Params {
	return machine.Params{
		Freq:     2 * units.GHz,
		Tc:       1 * units.Nanosecond,
		Tm:       100 * units.Nanosecond,
		Ts:       10 * units.Microsecond,
		Tb:       1 * units.Nanosecond,
		DeltaPc:  20,
		DeltaPm:  10,
		DeltaPio: 5,
		PcIdle:   40,
		PmIdle:   20,
		PioIdle:  10,
		Pother:   30,
		PsysIdle: 100,
	}
}

func serialWorkload() Workload {
	return Workload{Alpha: 1, WOn: 1e9, WOff: 1e6, P: 1}
}

func TestSequentialTimeAndEnergyByHand(t *testing.T) {
	m := Model{Machine: testParams(), App: serialWorkload()}
	// T = 1e9×1ns + 1e6×100ns = 1s + 0.1s = 1.1s.
	if got := m.SequentialTime(); math.Abs(float64(got)-1.1) > 1e-12 {
		t.Fatalf("T1 = %v, want 1.1s", got)
	}
	// E1 = 100×1.1 + 20×1.0 + 10×0.1 = 110 + 20 + 1 = 131 J.
	if got := m.SequentialEnergy(); math.Abs(float64(got)-131) > 1e-9 {
		t.Fatalf("E1 = %v, want 131 J", got)
	}
}

func TestOverlapScalesWallNotDeltas(t *testing.T) {
	app := serialWorkload()
	app.Alpha = 0.8
	m := Model{Machine: testParams(), App: app}
	// Wall shrinks: 0.8×1.1 = 0.88s.
	if got := m.SequentialTime(); math.Abs(float64(got)-0.88) > 1e-12 {
		t.Fatalf("T1 = %v, want 0.88s", got)
	}
	// Idle part uses the overlapped wall, deltas the full busy times:
	// E1 = 100×0.88 + 20×1.0 + 10×0.1 = 109 J.
	if got := m.SequentialEnergy(); math.Abs(float64(got)-109) > 1e-9 {
		t.Fatalf("E1 = %v, want 109 J", got)
	}
}

func TestIdealParallelGivesEEOne(t *testing.T) {
	// Zero overhead, zero communication: Ep = E1 exactly, EE = 1:
	// idle p×Tp = p×(T1/p) = T1, deltas unchanged.
	app := serialWorkload()
	app.P = 8
	m := Model{Machine: testParams(), App: app}
	pr, err := m.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pr.EE-1) > 1e-12 {
		t.Fatalf("ideal EE = %g, want 1", pr.EE)
	}
	if math.Abs(pr.EEF) > 1e-12 {
		t.Fatalf("ideal EEF = %g, want 0", pr.EEF)
	}
	if math.Abs(pr.Speedup-8) > 1e-9 {
		t.Fatalf("ideal speedup = %g, want 8", pr.Speedup)
	}
	if math.Abs(pr.PE-1) > 1e-12 {
		t.Fatalf("ideal PE = %g, want 1", pr.PE)
	}
}

func TestParallelByHand(t *testing.T) {
	// p=4 with communication: M=1000 msgs, B=1e6 bytes.
	app := Workload{Alpha: 1, WOn: 1e9, WOff: 1e6, DWOn: 4e8, DWOff: 4e5, M: 1000, B: 1e6, P: 4}
	m := Model{Machine: testParams(), App: app}
	pr, err := m.Predict()
	if err != nil {
		t.Fatal(err)
	}
	// Comm time = 1000×10µs + 1e6×1ns = 0.01 + 0.001 = 0.011 s.
	if got := m.CommTime(); math.Abs(float64(got)-0.011) > 1e-12 {
		t.Fatalf("comm = %v, want 0.011s", got)
	}
	// Tp = [(1.4e9×1ns) + (1.4e6×100ns) + 0.011]/4 = (1.4+0.14+0.011)/4.
	wantTp := (1.4 + 0.14 + 0.011) / 4
	if math.Abs(float64(pr.Tp)-wantTp) > 1e-12 {
		t.Fatalf("Tp = %v, want %g", pr.Tp, wantTp)
	}
	// Ep = 4×100×Tp + 20×1.4 + 10×0.14 = 400Tp + 28 + 1.4.
	wantEp := 400*wantTp + 28 + 1.4
	if math.Abs(float64(pr.Ep)-wantEp) > 1e-9 {
		t.Fatalf("Ep = %v, want %g", pr.Ep, wantEp)
	}
	// E1 = 131 J (as above); EEF and EE follow.
	wantEEF := (wantEp - 131) / 131
	if math.Abs(pr.EEF-wantEEF) > 1e-12 {
		t.Fatalf("EEF = %g, want %g", pr.EEF, wantEEF)
	}
	if math.Abs(pr.EE-1/(1+wantEEF)) > 1e-12 {
		t.Fatalf("EE = %g", pr.EE)
	}
	if math.Abs(pr.EE-float64(pr.E1)/float64(pr.Ep)) > 1e-12 {
		t.Fatal("EE must equal E1/Ep")
	}
}

func TestIOComponent(t *testing.T) {
	app := serialWorkload()
	app.TIO = 2 // 2 s of flat I/O
	m := Model{Machine: testParams(), App: app}
	// T1 = 1.1 + 2 = 3.1 s; E1 = 100×3.1 + 20 + 1 + 5×2 = 341 J.
	if got := m.SequentialTime(); math.Abs(float64(got)-3.1) > 1e-12 {
		t.Fatalf("T1 = %v", got)
	}
	if got := m.SequentialEnergy(); math.Abs(float64(got)-341) > 1e-9 {
		t.Fatalf("E1 = %v, want 341 J", got)
	}
}

func TestValidation(t *testing.T) {
	good := serialWorkload()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(w *Workload){
		func(w *Workload) { w.Alpha = 0 },
		func(w *Workload) { w.Alpha = 1.2 },
		func(w *Workload) { w.WOn = -1 },
		// Negative overhead is allowed (cache effects), but not beyond
		// the sequential workload: total parallel work must stay ≥ 0.
		func(w *Workload) { w.DWOff = -(w.WOff + 1) },
		func(w *Workload) { w.M = -1 },
		func(w *Workload) { w.TIO = -1 },
		func(w *Workload) { w.P = 0 },
	}
	for i, mutate := range cases {
		w := serialWorkload()
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: invalid workload accepted", i)
		}
	}
	// Predict surfaces workload errors.
	bad := Model{Machine: testParams(), App: Workload{Alpha: 1, P: 0}}
	if _, err := bad.Predict(); err == nil {
		t.Error("Predict must reject invalid workload")
	}
	// …and machine errors.
	badMach := testParams()
	badMach.Tc = 0
	if _, err := (&Model{Machine: badMach, App: good}).Predict(); err == nil {
		t.Error("Predict must reject invalid machine vector")
	}
	// …and degenerate zero-energy workloads.
	zero := Workload{Alpha: 1, P: 1}
	if _, err := (&Model{Machine: testParams(), App: zero}).Predict(); err == nil {
		t.Error("Predict must reject zero-work workloads")
	}
}

// Property: EE ∈ (0, 1] whenever overheads are non-negative, and EE
// decreases monotonically as any overhead term grows.
func TestEEBoundsAndMonotonicityProperty(t *testing.T) {
	mp := testParams()
	f := func(rawDW, rawM, rawB float64, rawP uint8) bool {
		p := int(rawP%64) + 1
		dw := math.Mod(math.Abs(rawDW), 1e9)
		mm := math.Mod(math.Abs(rawM), 1e6)
		bb := math.Mod(math.Abs(rawB), 1e9)
		app := Workload{Alpha: 0.9, WOn: 1e9, WOff: 1e6, DWOn: dw, DWOff: dw / 10, M: mm, B: bb, P: p}
		m := Model{Machine: mp, App: app}
		pr, err := m.Predict()
		if err != nil {
			return false
		}
		if pr.EE <= 0 || pr.EE > 1+1e-12 {
			return false
		}
		// Growing the overhead must not raise EE.
		app2 := app
		app2.DWOn *= 2
		app2.M += 100
		pr2, err := (&Model{Machine: mp, App: app2}).Predict()
		if err != nil {
			return false
		}
		return pr2.EE <= pr.EE+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: EE = E1/Ep identity holds for arbitrary valid inputs.
func TestEEIdentityProperty(t *testing.T) {
	mp := testParams()
	f := func(rawW, rawM float64, rawP uint8) bool {
		p := int(rawP%32) + 1
		w := 1e6 + math.Mod(math.Abs(rawW), 1e9)
		mm := math.Mod(math.Abs(rawM), 1e5)
		app := Workload{Alpha: 0.85, WOn: w, WOff: w / 100, DWOn: w / 10, M: mm, B: mm * 1000, P: p}
		pr, err := (&Model{Machine: mp, App: app}).Predict()
		if err != nil {
			return false
		}
		return math.Abs(pr.EE-float64(pr.E1)/float64(pr.Ep)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasuredEE(t *testing.T) {
	ee, err := MeasuredEE(100, 200)
	if err != nil || ee != 0.5 {
		t.Fatalf("MeasuredEE = %g, %v", ee, err)
	}
	if _, err := MeasuredEE(0, 10); err == nil {
		t.Fatal("zero E1 must error")
	}
	if _, err := MeasuredEE(10, 0); err == nil {
		t.Fatal("zero Ep must error")
	}
}

func TestPredictionError(t *testing.T) {
	if got := PredictionError(95, 100); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("error = %g, want 0.05", got)
	}
	if got := PredictionError(105, 100); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("error = %g, want 0.05", got)
	}
	if got := PredictionError(1, 0); got != 0 {
		t.Fatalf("zero measurement should yield 0, got %g", got)
	}
}

func TestFrequencyScalingDirection(t *testing.T) {
	// The §V.B.7 observation: for a memory-heavy code (CG-like), raising
	// f raises EE; for a communication-dominated code (FT-like at large
	// p), f hardly matters.
	spec := machine.SystemG()
	lowP, err := spec.AtFrequency(2.0 * units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	highP, err := spec.AtFrequency(2.8 * units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	ee := func(mp machine.Params, app Workload) float64 {
		pr, err := (&Model{Machine: mp, App: app}).Predict()
		if err != nil {
			t.Fatal(err)
		}
		return pr.EE
	}
	// CG-like: memory-heavy base workload with compute-dominated parallel
	// overhead (extra vector operations for the 2-D decomposition). This
	// is the §V.B.3 regime: EEF = Eo/E1 falls as f rises because the
	// compute-heavy Eo is more frequency sensitive than the
	// memory-anchored E1.
	cgApp := func(p int) Workload {
		n := 75000.0
		return Workload{
			Alpha: 0.85,
			WOn:   2000 * n, WOff: 300 * n,
			DWOn: 400 * n * math.Sqrt(float64(p)), DWOff: 10 * n * math.Sqrt(float64(p)),
			M: 500 * float64(p), B: 1e4 * float64(p),
			P: p,
		}
	}
	eeLow := ee(lowP, cgApp(16))
	eeHigh := ee(highP, cgApp(16))
	if eeHigh <= eeLow {
		t.Fatalf("CG-like: EE(2.8GHz)=%g should exceed EE(2.0GHz)=%g", eeHigh, eeLow)
	}

	// FT-like at scale: communication dominated → frequency nearly flat.
	ftApp := func(p int) Workload {
		n := 1 << 20
		return Workload{
			Alpha: 0.86,
			WOn:   200 * float64(n), WOff: 9.5 * float64(n),
			DWOn: 10 * float64(n), DWOff: 5 * float64(n),
			M: float64(40 * p * (p - 1)), B: 40 * 16 * float64(n) * float64(p-1) / float64(p),
			P: p,
		}
	}
	eeLowFT := ee(lowP, ftApp(64))
	eeHighFT := ee(highP, ftApp(64))
	relDiff := math.Abs(eeHighFT-eeLowFT) / eeLowFT
	if relDiff > 0.25 {
		t.Fatalf("FT-like: EE should be much less frequency sensitive, got %.3g rel. change (%g vs %g)", relDiff, eeLowFT, eeHighFT)
	}
}

func TestHeteroMatchesHomogeneousWhenIdentical(t *testing.T) {
	mp := testParams()
	app := Workload{Alpha: 1, WOn: 1e9, WOff: 1e6, DWOn: 1e8, M: 100, B: 1e5, P: 4}
	params := []machine.Params{mp, mp, mp, mp}
	hp, err := PredictHetero(params, app)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := (&Model{Machine: mp, App: app}).Predict()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(hp.Tp-pr.Tp)) > 1e-12 {
		t.Fatalf("hetero Tp %v != homogeneous %v", hp.Tp, pr.Tp)
	}
	if math.Abs(float64(hp.Ep-pr.Ep)) > 1e-9 {
		t.Fatalf("hetero Ep %v != homogeneous %v", hp.Ep, pr.Ep)
	}
	if math.Abs(hp.EE-pr.EE) > 1e-12 {
		t.Fatalf("hetero EE %g != homogeneous %g", hp.EE, pr.EE)
	}
}

func TestHeteroSlowNodeDragsEfficiency(t *testing.T) {
	fast := testParams()
	slow := testParams()
	slow.Tc = 2 * units.Nanosecond // half speed
	app := Workload{Alpha: 1, WOn: 1e9, WOff: 1e6, P: 2}

	uniform, err := PredictHetero([]machine.Params{fast, fast}, app)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := PredictHetero([]machine.Params{fast, slow}, app)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Tp <= uniform.Tp {
		t.Fatal("slow node must extend the makespan")
	}
	if mixed.EE >= uniform.EE {
		t.Fatalf("slow node must hurt EE: mixed %g, uniform %g", mixed.EE, uniform.EE)
	}
	if mixed.RefIndex != 0 {
		t.Fatalf("reference should be the fast node, got %d", mixed.RefIndex)
	}
}

func TestHeteroValidation(t *testing.T) {
	mp := testParams()
	if _, err := PredictHetero(nil, serialWorkload()); err == nil {
		t.Error("empty params must error")
	}
	if _, err := PredictHetero([]machine.Params{mp}, Workload{Alpha: 1, WOn: 1, P: 2}); err == nil {
		t.Error("params/P mismatch must error")
	}
	bad := mp
	bad.Tc = 0
	if _, err := PredictHetero([]machine.Params{bad}, serialWorkload()); err == nil {
		t.Error("invalid machine vector must error")
	}
}

var sinkEE float64

// BenchmarkPredict times one validated evaluation of the model chain
// (a CG-like workload at p = 64 on SystemG's base frequency): the cost
// every one-off Predict caller pays per point.
func BenchmarkPredict(b *testing.B) {
	m := Model{Machine: machine.SystemG().MustBase(), App: Workload{
		Alpha: 0.9, WOn: 3e10, WOff: 2e8, DWOn: 1e9, DWOff: -1e6, M: 4e4, B: 6e8, P: 64,
	}}
	for b.Loop() {
		pr, err := m.Predict()
		if err != nil {
			b.Fatal(err)
		}
		sinkEE += pr.EE
	}
}
