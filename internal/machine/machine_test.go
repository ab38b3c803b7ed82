package machine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestPresetsValidate(t *testing.T) {
	for name, spec := range Presets() {
		if err := spec.Validate(); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
	}
}

func TestAtFrequencyTc(t *testing.T) {
	s := SystemG()
	p, err := s.AtFrequency(s.BaseFreq)
	if err != nil {
		t.Fatal(err)
	}
	wantTc := units.Seconds(s.CPI / float64(s.BaseFreq))
	if math.Abs(float64(p.Tc-wantTc)) > 1e-18 {
		t.Fatalf("Tc = %v, want %v", p.Tc, wantTc)
	}
	if got := float64(p.Tc) * float64(p.Freq); math.Abs(got-s.CPI) > 1e-12 {
		t.Fatalf("CPI round trip = %v, want %v", got, s.CPI)
	}
}

func TestPowerFrequencyLaw(t *testing.T) {
	s := SystemG()
	base, err := s.Base()
	if err != nil {
		t.Fatal(err)
	}
	half, err := s.AtFrequency(s.BaseFreq / 2)
	if err != nil {
		t.Fatal(err)
	}
	// ΔPc ∝ f^γ with γ=2: half frequency → quarter power.
	want := float64(base.DeltaPc) / 4
	if math.Abs(float64(half.DeltaPc)-want) > 1e-9 {
		t.Fatalf("ΔPc at f/2 = %v, want %v (γ=2)", half.DeltaPc, want)
	}
	// Memory parameters must not scale with CPU frequency.
	if half.Tm != base.Tm || half.DeltaPm != base.DeltaPm {
		t.Fatalf("memory parameters must be frequency independent")
	}
	// Network parameters must not scale with CPU frequency.
	if half.Ts != base.Ts || half.Tb != base.Tb {
		t.Fatalf("network parameters must be frequency independent")
	}
}

func TestIdlePowerScalesPartially(t *testing.T) {
	s := SystemG()
	base := s.MustBase()
	low, err := s.AtFrequency(s.MinFrequency())
	if err != nil {
		t.Fatal(err)
	}
	if low.PcIdle >= base.PcIdle {
		t.Fatalf("idle CPU power should drop at lower frequency: %v !< %v", low.PcIdle, base.PcIdle)
	}
	if low.PcIdle <= 0 {
		t.Fatalf("idle CPU power must remain positive, got %v", low.PcIdle)
	}
	// The static fraction bounds the drop.
	floor := float64(base.PcIdle) * (1 - s.IdleFreqFraction)
	if float64(low.PcIdle) < floor-1e-9 {
		t.Fatalf("idle power %v fell below static floor %v", low.PcIdle, floor)
	}
}

func TestPsysIdleIsComponentSum(t *testing.T) {
	for name, s := range Presets() {
		p := s.MustBase()
		sum := p.PcIdle + p.PmIdle + p.PioIdle + p.Pother
		if math.Abs(float64(sum-p.PsysIdle)) > 1e-9 {
			t.Errorf("%s: PsysIdle %v != component sum %v", name, p.PsysIdle, sum)
		}
	}
}

// LadderParams is AtFrequency over the whole ladder, validated once:
// element for element the same vectors, and the same refusals.
func TestLadderParamsMatchesAtFrequency(t *testing.T) {
	for _, spec := range []Spec{SystemG(), Dori()} {
		ladder, err := spec.LadderParams()
		if err != nil {
			t.Fatal(err)
		}
		if len(ladder) != len(spec.Frequencies) {
			t.Fatalf("%s: %d vectors for %d ladder steps", spec.Name, len(ladder), len(spec.Frequencies))
		}
		for i, f := range spec.Frequencies {
			want, err := spec.AtFrequency(f)
			if err != nil {
				t.Fatal(err)
			}
			if ladder[i] != want {
				t.Errorf("%s step %d (%v): %+v, AtFrequency %+v", spec.Name, i, f, ladder[i], want)
			}
		}
	}
	bad := SystemG()
	bad.Gamma = 0.5
	if _, err := bad.LadderParams(); err == nil {
		t.Error("an invalid spec must be rejected")
	}
	bad = SystemG()
	bad.PcIdle, bad.PmIdle, bad.PioIdle, bad.Pother = 0, 0, 0, 0 // a valid spec, Psys-idle = 0 vectors
	if _, err := bad.LadderParams(); err == nil {
		t.Error("a spec whose vectors do not validate must be rejected")
	}
}

func TestAtFrequencyRejectsNonPositive(t *testing.T) {
	s := SystemG()
	if _, err := s.AtFrequency(0); err == nil {
		t.Fatal("want error for f=0")
	}
	if _, err := s.AtFrequency(-1); err == nil {
		t.Fatal("want error for negative f")
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	good := SystemG()

	bad := good
	bad.Gamma = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("gamma < 1 must be rejected (power ∝ f^γ, γ≥1)")
	}

	bad = good
	bad.Frequencies = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty DVFS ladder must be rejected")
	}

	bad = good
	bad.Frequencies = []units.Hertz{2.8 * units.GHz, 2.0 * units.GHz}
	if err := bad.Validate(); err == nil {
		t.Error("descending ladder must be rejected")
	}

	bad = good
	bad.Frequencies = []units.Hertz{2.0 * units.GHz}
	if err := bad.Validate(); err == nil {
		t.Error("ladder missing base frequency must be rejected")
	}

	bad = good
	bad.CPI = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero CPI must be rejected")
	}

	bad = good
	bad.IdleFreqFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("IdleFreqFraction > 1 must be rejected")
	}
}

func TestMaxRanks(t *testing.T) {
	if got, want := Homogeneous(SystemG()).Pools[0].MaxRanks(), 8*325; got != want {
		t.Fatalf("MaxRanks = %d, want %d", got, want)
	}
	if got, want := (NodePool{Spec: SystemG(), Nodes: 16}).MaxRanks(), 8*16; got != want {
		t.Fatalf("16-node pool MaxRanks = %d, want %d", got, want)
	}
}

// Property: ΔPc is monotone non-decreasing in f for any γ ≥ 1, and tc is
// strictly decreasing in f.
func TestFrequencyMonotonicityProperty(t *testing.T) {
	s := SystemG()
	f := func(rawGamma, rawF1, rawF2 float64) bool {
		gamma := 1 + math.Mod(math.Abs(rawGamma), 3) // γ ∈ [1,4)
		f1 := units.Hertz(1e9 * (1 + math.Mod(math.Abs(rawF1), 3)))
		f2 := units.Hertz(1e9 * (1 + math.Mod(math.Abs(rawF2), 3)))
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		if f1 == f2 {
			return true
		}
		spec := s
		spec.Gamma = gamma
		p1, err1 := spec.AtFrequency(f1)
		p2, err2 := spec.AtFrequency(f2)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1.DeltaPc <= p2.DeltaPc && p1.Tc > p2.Tc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlatform(t *testing.T) {
	pl := Platform{Pools: []NodePool{
		{Spec: Dori(), Nodes: 8},
		{Spec: SystemG(), Nodes: 32},
	}}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := pl.TotalRanks(); got != 40 {
		t.Fatalf("TotalRanks = %d, want 40", got)
	}
	// Stable global numbering: pool 0 supplies ranks [0,8), pool 1 [8,40).
	for rank, want := range map[int]int{0: 0, 7: 0, 8: 1, 39: 1} {
		if pi, err := pl.PoolOf(rank); err != nil || pi != want {
			t.Fatalf("PoolOf(%d) = %d, %v; want %d", rank, pi, err, want)
		}
	}
	if _, err := pl.PoolOf(-1); err == nil {
		t.Fatal("negative rank must error")
	}
	if _, err := pl.PoolOf(40); err == nil {
		t.Fatal("rank beyond capacity must error")
	}
	if pi, _ := pl.PoolOf(8); pl.Pools[pi].Spec.Name != "SystemG" {
		t.Fatalf("rank 8 runs on %s, want SystemG", pl.Pools[pi].Spec.Name)
	}
	if got, want := pl.String(), "Dori:8+SystemG:32"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if fs := pl.MinFrequencies(); fs[0] != Dori().MinFrequency() || fs[1] != SystemG().MinFrequency() {
		t.Fatalf("MinFrequencies = %v", fs)
	}

	// The homogeneous wrapper is the classic one-Spec cluster: spec-name
	// label, spec-sized pool.
	h := Homogeneous(SystemG())
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.String() != "SystemG" || h.TotalRanks() != SystemG().Nodes {
		t.Fatalf("Homogeneous: %q, %d ranks", h.String(), h.TotalRanks())
	}
	if want := SystemG().CoresPerNode * SystemG().Nodes; h.Pools[0].MaxRanks() != want {
		t.Fatalf("pool MaxRanks %d want %d", h.Pools[0].MaxRanks(), want)
	}

	// Validation failures: no pools, duplicate names, negative counts.
	if err := (Platform{}).Validate(); err == nil {
		t.Fatal("empty platform must fail validation")
	}
	if err := (Platform{Pools: []NodePool{{Spec: Dori()}, {Spec: Dori()}}}).Validate(); err == nil {
		t.Fatal("duplicate pool names must fail validation")
	}
	if err := (Platform{Pools: []NodePool{{Spec: Dori(), Nodes: -1}}}).Validate(); err == nil {
		t.Fatal("negative node count must fail validation")
	}
}

func TestParsePlatform(t *testing.T) {
	pl, err := ParsePlatform("systemg:32,dori:4")
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Pools) != 2 || pl.Pools[0].NodeCount() != 32 || pl.Pools[1].NodeCount() != 4 {
		t.Fatalf("parsed %+v", pl)
	}
	if pl.Pools[0].Spec.Name != "SystemG" || pl.Pools[1].Spec.Name != "Dori" {
		t.Fatalf("parsed specs %s, %s", pl.Pools[0].Spec.Name, pl.Pools[1].Spec.Name)
	}
	// A bare preset deploys the full node count.
	pl, err = ParsePlatform("dori")
	if err != nil {
		t.Fatal(err)
	}
	if pl.TotalRanks() != Dori().Nodes {
		t.Fatalf("bare preset ranks = %d, want %d", pl.TotalRanks(), Dori().Nodes)
	}
	for _, bad := range []string{"", "nosuch", "systemg:0", "systemg:-3", "systemg:x", "systemg,,dori"} {
		if _, err := ParsePlatform(bad); err == nil {
			t.Fatalf("ParsePlatform(%q) must fail", bad)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := SystemG().MustBase()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Tc = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tc must be rejected")
	}
	bad = good
	bad.PsysIdle = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero idle power must be rejected")
	}
	bad = good
	bad.DeltaPc = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative ΔPc must be rejected")
	}
}

// FuzzParsePlatform: no input panics, and an accepted platform's label
// names it — String joins pools with "+" where the flag grammar uses
// ",", otherwise it is the grammar's inverse. Equality is on the label
// (every pool's name and deployed count): a bare preset in a pool list
// keeps Nodes 0 ("the preset's size") where its label spells the count.
func FuzzParsePlatform(f *testing.F) {
	for _, seed := range []string{"systemg", "dori", "systemg:32,dori:4", " SystemG:8 , dori", "systemg:0", "systemg,systemg"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pl, err := ParsePlatform(spec)
		if err != nil {
			return
		}
		back, err := ParsePlatform(strings.ReplaceAll(pl.String(), "+", ","))
		if err != nil || back.String() != pl.String() || back.TotalRanks() != pl.TotalRanks() {
			t.Fatalf("ParsePlatform(%q) = %s, which reparses to %v, %v", spec, pl, back, err)
		}
	})
}
