// Package units defines the physical quantities used throughout the
// iso-energy-efficiency model and the cluster simulator.
//
// All quantities are float64-backed named types so that the model code
// reads like the paper's equations (E = P·t, t = W·tc, …) while the type
// names keep the many scalar parameters from being confused with one
// another. Conversions are explicit.
package units

import (
	"fmt"
	"math"
)

// Seconds is a time duration in seconds of virtual (simulated) or modeled
// time. The simulator uses float64 seconds rather than time.Duration so
// that sub-nanosecond machine parameters (e.g. per-byte transmission time
// on a 40 Gb/s link) do not lose precision.
type Seconds float64

// Joules is an amount of energy.
type Joules float64

// Watts is power, i.e. Joules per second.
type Watts float64

// Hertz is a frequency, used for CPU clock rates.
type Hertz float64

// Bytes is a data volume used for message sizes and memory footprints.
type Bytes float64

// Common scale constants.
const (
	Nanosecond  Seconds = 1e-9
	Microsecond Seconds = 1e-6
	Millisecond Seconds = 1e-3

	MHz Hertz = 1e6
	GHz Hertz = 1e9

	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
)

// Finite reports whether every value is a real number — the one check
// behind every configuration knob. A NaN fails each range comparison a
// validator or scheduler would make against it (a NaN cap runs uncapped,
// a NaN MTBF arms failures at NaN), and an infinite time never arrives.
func Finite[T ~float64](vs ...T) bool {
	for _, v := range vs {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// Energy returns the energy dissipated by drawing power p for duration t.
func Energy(p Watts, t Seconds) Joules {
	return Joules(float64(p) * float64(t))
}

// Power returns the average power corresponding to energy e spent over
// duration t. It returns 0 for non-positive durations.
func Power(e Joules, t Seconds) Watts {
	if t <= 0 {
		return 0
	}
	return Watts(float64(e) / float64(t))
}

// String renders a duration with an auto-selected SI prefix.
func (s Seconds) String() string {
	abs := float64(s)
	if abs < 0 {
		abs = -abs
	}
	switch {
	case s == 0:
		return "0s"
	case abs < 1e-6:
		return fmt.Sprintf("%.3gns", float64(s)/1e-9)
	case abs < 1e-3:
		return fmt.Sprintf("%.3gµs", float64(s)/1e-6)
	case abs < 1:
		return fmt.Sprintf("%.3gms", float64(s)/1e-3)
	default:
		return fmt.Sprintf("%.4gs", float64(s))
	}
}

// String renders energy with an auto-selected SI prefix.
func (j Joules) String() string {
	abs := float64(j)
	if abs < 0 {
		abs = -abs
	}
	switch {
	case j == 0:
		return "0J"
	case abs < 1e-3:
		return fmt.Sprintf("%.3gµJ", float64(j)/1e-6)
	case abs < 1:
		return fmt.Sprintf("%.3gmJ", float64(j)/1e-3)
	case abs < 1e3:
		return fmt.Sprintf("%.4gJ", float64(j))
	case abs < 1e6:
		return fmt.Sprintf("%.4gkJ", float64(j)/1e3)
	default:
		return fmt.Sprintf("%.4gMJ", float64(j)/1e6)
	}
}

// String renders power in watts.
func (w Watts) String() string { return fmt.Sprintf("%.4gW", float64(w)) }

// String renders frequency with an auto-selected SI prefix.
func (h Hertz) String() string {
	switch {
	case h >= 1e9:
		return fmt.Sprintf("%.4gGHz", float64(h)/1e9)
	case h >= 1e6:
		return fmt.Sprintf("%.4gMHz", float64(h)/1e6)
	case h >= 1e3:
		return fmt.Sprintf("%.4gkHz", float64(h)/1e3)
	default:
		return fmt.Sprintf("%gHz", float64(h))
	}
}

// String renders a byte count with binary prefixes.
func (b Bytes) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.4gGiB", float64(b/GB))
	case b >= MB:
		return fmt.Sprintf("%.4gMiB", float64(b/MB))
	case b >= KB:
		return fmt.Sprintf("%.4gKiB", float64(b/KB))
	default:
		return fmt.Sprintf("%gB", float64(b))
	}
}
