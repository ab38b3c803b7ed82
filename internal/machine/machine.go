// Package machine models the machine-dependent parameter vector of the
// iso-energy-efficiency model (Table 1 of the paper):
//
//	Mch(f, Rtran) = (tc, tm, Ts, Tb, ΔPc, ΔPm, Psys-idle)
//
// where
//
//	tc  — average time per on-chip computation instruction, tc = CPI/f
//	tm  — average main-memory access latency
//	Ts  — average message start-up (latency) time
//	Tb  — average time to transmit one byte on the interconnect
//	ΔPc — Pc − Pc-idle, extra CPU power while computing
//	ΔPm — Pm − Pm-idle, extra memory power during accesses
//	Psys-idle — whole-node idle power (CPU + memory + I/O + other)
//
// The vector is a function of CPU clock frequency f (through tc and the
// power-frequency law ΔPc ∝ f^γ, γ ≥ 1, after Kim et al.) and of the
// interconnect bandwidth (through Ts, Tb).
package machine

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// Params is the machine-dependent parameter vector at one operating point
// (a specific DVFS frequency). Construct one through Spec.AtFrequency,
// or fill it directly in tests.
type Params struct {
	// Freq is the CPU clock frequency this vector was evaluated at.
	Freq units.Hertz

	// Tc is the average time per on-chip computation instruction
	// (includes on-chip caches and registers): Tc = CPI/f.
	Tc units.Seconds

	// Tm is the average main memory access latency.
	Tm units.Seconds

	// Ts is the average start-up time to send a message.
	Ts units.Seconds

	// Tb is the average time to transmit one byte.
	// (The paper states an 8-bit word, i.e. one byte.)
	Tb units.Seconds

	// DeltaPc is the additional CPU power while computing (Pc − Pc-idle).
	DeltaPc units.Watts

	// DeltaPm is the additional memory power during accesses (Pm − Pm-idle).
	DeltaPm units.Watts

	// DeltaPio is the additional I/O device power during accesses
	// (Pio − Pio-idle). The paper's benchmarks do not exercise disk I/O,
	// so this defaults to 0 in the presets, but the component is modeled
	// (paper §VI.B) for completeness.
	DeltaPio units.Watts

	// PsysIdle is the average whole-node power in the idle state
	// (Pc-idle + Pm-idle + Pio-idle + Pother).
	PsysIdle units.Watts

	// CacheBytes is the per-core last-level cache capacity (see
	// Spec.CacheBytes); zero disables cache-aware access counting.
	CacheBytes units.Bytes

	// Component idle powers; they sum (with Pother) to PsysIdle and are
	// used by the power profiler to attribute idle power per component.
	PcIdle  units.Watts
	PmIdle  units.Watts
	PioIdle units.Watts
	Pother  units.Watts
}

// Validate reports whether the vector is physically sensible.
func (p Params) Validate() error {
	switch {
	case p.Freq <= 0:
		return fmt.Errorf("machine: frequency %v must be positive", p.Freq)
	case p.Tc <= 0:
		return fmt.Errorf("machine: tc %v must be positive", p.Tc)
	case p.Tm <= 0:
		return fmt.Errorf("machine: tm %v must be positive", p.Tm)
	case p.Ts < 0 || p.Tb < 0:
		return errors.New("machine: network parameters must be non-negative")
	case p.DeltaPc < 0 || p.DeltaPm < 0 || p.DeltaPio < 0:
		return errors.New("machine: power deltas must be non-negative")
	case p.PsysIdle <= 0:
		return errors.New("machine: system idle power must be positive")
	}
	return nil
}

// Spec describes a homogeneous power-aware cluster node type and how its
// parameter vector scales with the DVFS frequency. It is the durable
// description; Params is one evaluated operating point.
type Spec struct {
	// Name identifies the node type ("SystemG", "Dori", …).
	Name string

	// CPI is the average cycles per on-chip instruction at any frequency
	// (tc = CPI/f).
	CPI float64

	// BaseFreq is the nominal (highest) frequency; power constants below
	// are specified at this frequency.
	BaseFreq units.Hertz

	// Frequencies is the DVFS ladder, ascending. Must contain BaseFreq.
	Frequencies []units.Hertz

	// Gamma is the exponent of the power-frequency law
	// ΔPc(f) = ΔPc(BaseFreq) · (f/BaseFreq)^Gamma, γ ≥ 1 (Kim et al.).
	Gamma float64

	// Tm is the main-memory access latency (frequency independent: the
	// memory subsystem does not scale with core DVFS).
	Tm units.Seconds

	// Ts and Tb describe the interconnect (Hockney α/β).
	Ts units.Seconds
	Tb units.Seconds

	// DeltaPcBase is ΔPc at BaseFreq.
	DeltaPcBase units.Watts
	// DeltaPm is the memory active-power delta (frequency independent).
	DeltaPm units.Watts
	// DeltaPio is the I/O active-power delta.
	DeltaPio units.Watts

	// CacheBytes is the last-level cache capacity available to one core.
	// Kernels with reused working sets (CG) count fewer off-chip
	// accesses when their per-rank working set fits — the cache effect
	// behind the paper's negative fitted ΔWoff for CG. Zero disables
	// the cache model (every counted access is off-chip).
	CacheBytes units.Bytes

	// Idle power split at BaseFreq. A fraction of CPU idle power is
	// frequency dependent (leakage and clock tree scale down with f);
	// IdleFreqFraction of PcIdle follows (f/BaseFreq).
	PcIdle           units.Watts
	PmIdle           units.Watts
	PioIdle          units.Watts
	Pother           units.Watts
	IdleFreqFraction float64

	// CoresPerNode and Nodes describe the cluster size for simulation
	// and the limits of scalability studies.
	CoresPerNode int
	Nodes        int
}

// Validate reports whether the spec is self-consistent.
func (s Spec) Validate() error {
	if s.Name == "" {
		return errors.New("machine: spec needs a name")
	}
	if s.CPI <= 0 {
		return fmt.Errorf("machine: %s: CPI must be positive", s.Name)
	}
	if s.BaseFreq <= 0 {
		return fmt.Errorf("machine: %s: base frequency must be positive", s.Name)
	}
	if s.Gamma < 1 {
		return fmt.Errorf("machine: %s: gamma %.3g must be ≥ 1 (power ∝ f^γ, γ≥1)", s.Name, s.Gamma)
	}
	if len(s.Frequencies) == 0 {
		return fmt.Errorf("machine: %s: empty DVFS ladder", s.Name)
	}
	if !sort.SliceIsSorted(s.Frequencies, func(i, j int) bool { return s.Frequencies[i] < s.Frequencies[j] }) {
		return fmt.Errorf("machine: %s: DVFS ladder must be ascending", s.Name)
	}
	found := false
	for _, f := range s.Frequencies {
		if f <= 0 {
			return fmt.Errorf("machine: %s: non-positive frequency in ladder", s.Name)
		}
		if f == s.BaseFreq {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("machine: %s: ladder must contain base frequency %v", s.Name, s.BaseFreq)
	}
	if s.IdleFreqFraction < 0 || s.IdleFreqFraction > 1 {
		return fmt.Errorf("machine: %s: IdleFreqFraction must be in [0,1]", s.Name)
	}
	if s.CoresPerNode <= 0 || s.Nodes <= 0 {
		return fmt.Errorf("machine: %s: CoresPerNode and Nodes must be positive", s.Name)
	}
	if s.Tm <= 0 || s.Ts < 0 || s.Tb < 0 {
		return fmt.Errorf("machine: %s: invalid latency parameters", s.Name)
	}
	return nil
}

// MissFraction is the saturating cache model shared by the kernels and
// the closed-form application vectors: the fraction of counted accesses
// that reach main memory for a reused working set of the given size.
// A working set within the cache still pays a floor of 30 % (cold,
// conflict and TLB misses, shared-LLC pressure — captured reuse is
// partial at this counting granularity); a larger one additionally
// streams its overflow. The curve is continuous at workingSet == cache.
// cache = 0 disables the model (1.0).
func MissFraction(workingSet, cache units.Bytes) float64 {
	const floor = 0.3
	if cache <= 0 || workingSet <= 0 {
		return 1
	}
	if workingSet <= cache {
		return floor
	}
	return 1 - (1-floor)*float64(cache)/float64(workingSet)
}

// AtFrequency evaluates the machine-dependent vector at frequency f,
// applying tc = CPI/f and the power-frequency law. f need not be on the
// DVFS ladder (the model is continuous in f).
func (s Spec) AtFrequency(f units.Hertz) (Params, error) {
	if err := s.Validate(); err != nil {
		return Params{}, err
	}
	return s.at(f)
}

// LadderParams evaluates the whole DVFS ladder: element i is exactly
// AtFrequency(Frequencies[i]), with the spec validated once instead of
// per point. Consumers that retune or price against ladder positions
// (cluster, opcache) build this table once and index it afterwards.
func (s Spec) LadderParams() ([]Params, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := make([]Params, len(s.Frequencies))
	for i, f := range s.Frequencies {
		mp, err := s.at(f)
		if err != nil {
			return nil, err
		}
		out[i] = mp
	}
	return out, nil
}

// at is AtFrequency on a spec already known to be valid.
func (s Spec) at(f units.Hertz) (Params, error) {
	if f <= 0 {
		return Params{}, fmt.Errorf("machine: %s: frequency %v must be positive", s.Name, f)
	}
	ratio := float64(f) / float64(s.BaseFreq)
	// CPU idle power: a fraction scales linearly with f (clock tree,
	// leakage to first order), the rest is static.
	pcIdle := units.Watts(float64(s.PcIdle) * (1 - s.IdleFreqFraction + s.IdleFreqFraction*ratio))
	p := Params{
		Freq:       f,
		Tc:         units.Seconds(s.CPI / float64(f)),
		Tm:         s.Tm,
		Ts:         s.Ts,
		Tb:         s.Tb,
		DeltaPc:    units.Watts(float64(s.DeltaPcBase) * math.Pow(ratio, s.Gamma)),
		DeltaPm:    s.DeltaPm,
		DeltaPio:   s.DeltaPio,
		PcIdle:     pcIdle,
		PmIdle:     s.PmIdle,
		PioIdle:    s.PioIdle,
		Pother:     s.Pother,
		CacheBytes: s.CacheBytes,
	}
	p.PsysIdle = p.PcIdle + p.PmIdle + p.PioIdle + p.Pother
	return p, p.Validate()
}

// Base evaluates the vector at the nominal frequency.
func (s Spec) Base() (Params, error) { return s.AtFrequency(s.BaseFreq) }

// MustBase is Base for presets known to be valid; it panics on error and
// is intended for package-level initialisation in examples and tests.
func (s Spec) MustBase() Params {
	p, err := s.Base()
	if err != nil {
		panic(err)
	}
	return p
}

// MinFrequency returns the lowest DVFS operating point.
func (s Spec) MinFrequency() units.Hertz { return s.Frequencies[0] }
