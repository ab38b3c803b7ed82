package app

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
)

func allVectors() []Vector {
	return []Vector{FT(20), EP(), CG(11, 15), IS(1024, 10), MG(4)}
}

func TestSequentialHasNoOverhead(t *testing.T) {
	for _, v := range allVectors() {
		w := v.At(1e6, 1)
		if w.DWOn != 0 || w.DWOff != 0 || w.M != 0 || w.B != 0 {
			t.Errorf("%s: p=1 must have zero overhead, got %+v", v.Name, w)
		}
		if w.WOn <= 0 {
			t.Errorf("%s: sequential on-chip workload must be positive", v.Name)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
}

func TestVectorsValidateAcrossRange(t *testing.T) {
	for _, v := range allVectors() {
		for _, p := range []int{1, 2, 4, 16, 64, 128} {
			for _, n := range []float64{1e4, 1e6, 1e8} {
				w := v.At(n, p)
				if err := w.Validate(); err != nil {
					t.Errorf("%s at n=%g p=%d: %v", v.Name, n, p, err)
				}
			}
		}
	}
}

func TestAtPanicsOnBadArgs(t *testing.T) {
	v := EP()
	for _, f := range []func(){
		func() { v.At(0, 1) },
		func() { v.At(-5, 1) },
		func() { v.At(100, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid At args must panic")
				}
			}()
			f()
		}()
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ft", "FT", "ep", "cg", "is", "mg"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("lu"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestFromCounters(t *testing.T) {
	w := FromCounters(0.9, 1000, 100, 1500, 130, 42, 9000, 4)
	if w.WOn != 1000 || w.WOff != 100 {
		t.Fatalf("sequential parts wrong: %+v", w)
	}
	if w.DWOn != 500 || w.DWOff != 30 {
		t.Fatalf("overheads wrong: %+v", w)
	}
	if w.M != 42 || w.B != 9000 || w.P != 4 {
		t.Fatalf("comm parts wrong: %+v", w)
	}
	// Negative apparent overhead is preserved (the paper's CG fit has a
	// negative ΔWoff from cache effects).
	w2 := FromCounters(0.9, 1000, 100, 900, 90, 0, 0, 2)
	if w2.DWOn != -100 || w2.DWOff != -10 {
		t.Fatalf("negative overhead must be preserved: %+v", w2)
	}
	if err := w2.Validate(); err != nil {
		t.Fatalf("negative overhead within bounds must validate: %v", err)
	}
}

// The §V.B qualitative findings, asserted against the closed forms on the
// SystemG machine vector. These are the headline shape results of the
// paper (Figures 5–9).
func TestPaperShapeFindings(t *testing.T) {
	sysG := machine.SystemG()
	mp := sysG.MustBase()
	ee := func(v Vector, n float64, p int) float64 {
		pr, err := (&core.Model{Machine: mp, App: v.At(n, p)}).Predict()
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		return pr.EE
	}

	// 1. FT: EE decreases sharply with p at fixed n (Fig. 5).
	ft := FT(20)
	nFT := float64(1 << 21)
	if !(ee(ft, nFT, 4) > ee(ft, nFT, 16) && ee(ft, nFT, 16) > ee(ft, nFT, 64)) {
		t.Errorf("FT: EE should fall with p: %g %g %g",
			ee(ft, nFT, 4), ee(ft, nFT, 16), ee(ft, nFT, 64))
	}
	// 2. FT: EE increases with n at fixed p (Fig. 6).
	if !(ee(ft, 1<<18, 16) < ee(ft, 1<<22, 16)) {
		t.Errorf("FT: EE should rise with n: %g vs %g", ee(ft, 1<<18, 16), ee(ft, 1<<22, 16))
	}
	// 3. EP: EE ≈ 1 everywhere (Fig. 7): within 2% for p up to 128.
	ep := EP()
	for _, p := range []int{2, 8, 32, 128} {
		if got := ee(ep, 1e8, p); got < 0.98 {
			t.Errorf("EP: EE(p=%d) = %g, want ≈ 1", p, got)
		}
	}
	// 4. EP: scaling n does not change EE materially (§V.B.6).
	dEP := math.Abs(ee(ep, 1e7, 32) - ee(ep, 1e9, 32))
	if dEP > 0.02 {
		t.Errorf("EP: EE should be insensitive to n, delta %g", dEP)
	}
	// 5. CG: EE decreases with p, increases with n (Figs. 8, 9).
	cg := CG(11, 15)
	if !(ee(cg, 75000, 4) > ee(cg, 75000, 16) && ee(cg, 75000, 16) > ee(cg, 75000, 64)) {
		t.Errorf("CG: EE should fall with p: %g %g %g",
			ee(cg, 75000, 4), ee(cg, 75000, 16), ee(cg, 75000, 64))
	}
	if !(ee(cg, 2e4, 16) < ee(cg, 5e5, 16)) {
		t.Errorf("CG: EE should rise with n")
	}
	// 6. CG: EE increases with frequency; FT and EP are insensitive
	// (§V.B.7).
	low, err := sysG.AtFrequency(2.0e9)
	if err != nil {
		t.Fatal(err)
	}
	eeAt := func(v Vector, n float64, p int, m machine.Params) float64 {
		pr, err := (&core.Model{Machine: m, App: v.At(n, p)}).Predict()
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		return pr.EE
	}
	if !(eeAt(cg, 75000, 16, mp) > eeAt(cg, 75000, 16, low)) {
		t.Errorf("CG: EE should rise with f: %g (2.8GHz) vs %g (2.0GHz)",
			eeAt(cg, 75000, 16, mp), eeAt(cg, 75000, 16, low))
	}
	for _, tc := range []struct {
		v Vector
		n float64
		p int
	}{{ft, nFT, 64}, {ep, 1e8, 64}} {
		hi := eeAt(tc.v, tc.n, tc.p, mp)
		lo := eeAt(tc.v, tc.n, tc.p, low)
		if rel := math.Abs(hi-lo) / lo; rel > 0.10 {
			t.Errorf("%s: EE should be frequency insensitive, got %.3g rel. change", tc.v.Name, rel)
		}
	}
}

// Property: for every vector, EE is non-increasing in p (more
// parallelisation ⇒ more overhead energy; paper §V.B.5) at any fixed n.
func TestEEMonotoneInPProperty(t *testing.T) {
	mp := machine.SystemG().MustBase()
	vectors := allVectors()
	f := func(rawN float64, rawV uint8) bool {
		v := vectors[int(rawV)%len(vectors)]
		n := 1e5 + math.Mod(math.Abs(rawN), 1e7)
		prev := math.Inf(1)
		for _, p := range []int{1, 4, 16, 64} {
			pr, err := (&core.Model{Machine: mp, App: v.At(n, p)}).Predict()
			if err != nil {
				return false
			}
			if pr.EE > prev+1e-9 {
				return false
			}
			prev = pr.EE
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
