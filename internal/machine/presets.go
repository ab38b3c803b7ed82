package machine

import "repro/internal/units"

// Presets for the two power-aware clusters of the paper's evaluation
// (§IV.A). The timing parameters follow the paper where stated (2.8 GHz
// Xeons with 40 Gb/s InfiniBand on SystemG; dual-core Opterons with 1 Gb/s
// Ethernet on Dori; γ = 2 on SystemG). Power constants are calibrated to
// PowerPack-published component measurements for 2011-era server nodes and
// are documented here because the paper's camera-ready lists them only in
// garbled form (DESIGN.md §1). Absolute Joule outputs therefore track
// the paper in shape, not in exact value.

// SystemG models one core's share of a SystemG node: Mac Pro, two 4-core
// 2.8 GHz Intel Xeon processors, 8 GB RAM, Mellanox 40 Gb/s InfiniBand.
// The per-core power attribution divides node-level component power by the
// eight cores so that p ranks on p cores account for p shares, matching
// the paper's per-processor energy model (Eq. 14).
func SystemG() Spec {
	return Spec{
		Name:     "SystemG",
		CPI:      0.86, // paper: FT machine vector lists CPI-derived tc = CPI/f with CPI ≈ 0.86
		BaseFreq: 2.8 * units.GHz,
		Frequencies: []units.Hertz{
			2.0 * units.GHz, 2.2 * units.GHz, 2.4 * units.GHz, 2.6 * units.GHz, 2.8 * units.GHz,
		},
		Gamma:      2.0, // paper §V.B.1: "we set γ=2 based on our test bed SystemG"
		Tm:         90 * units.Nanosecond,
		CacheBytes: 6 * units.MB, // paper §IV.A: "each core has a 6 MB cache"
		// InfiniBand 40 Gb/s: ~2.6 µs small-message latency,
		// 1/(40 Gb/s) = 0.2 ns/byte asymptotic cost.
		Ts: 2.6 * units.Microsecond,
		Tb: 0.2 * units.Nanosecond,
		// Per-core power shares (node / 8 cores): Xeon E5462-class node
		// draws ≈ 60 W extra per socket under full compute load.
		DeltaPcBase: 15.0,
		DeltaPm:     6.0,
		DeltaPio:    0, // benchmarks are not disk intensive (paper §IV.B)
		PcIdle:      8.0,
		PmIdle:      4.0,
		PioIdle:     1.5,
		Pother:      11.5, // motherboard, fans, NIC, power-supply share
		// About 30 % of CPU idle power tracks frequency (clock tree).
		IdleFreqFraction: 0.3,
		CoresPerNode:     8,
		Nodes:            325,
	}
}

// Dori models one core's share of a Dori node: dual dual-core AMD Opteron,
// 6 GB RAM, 1 Gb/s Ethernet.
func Dori() Spec {
	return Spec{
		Name:     "Dori",
		CPI:      1.10,
		BaseFreq: 2.0 * units.GHz,
		Frequencies: []units.Hertz{
			1.0 * units.GHz, 1.4 * units.GHz, 1.8 * units.GHz, 2.0 * units.GHz,
		},
		Gamma:      2.2,
		Tm:         110 * units.Nanosecond,
		CacheBytes: 1 * units.MB, // paper §IV.A: "each core has 1 MB cache"
		// Gigabit Ethernet: ~50 µs latency, 1/(1 Gb/s) = 8 ns/byte.
		Ts: 50 * units.Microsecond,
		Tb: 8 * units.Nanosecond,
		// Per-core shares (node / 4 cores).
		DeltaPcBase:      22.0,
		DeltaPm:          7.5,
		DeltaPio:         0,
		PcIdle:           12.0,
		PmIdle:           6.0,
		PioIdle:          2.0,
		Pother:           17.0,
		IdleFreqFraction: 0.25,
		CoresPerNode:     4,
		Nodes:            8,
	}
}

// Presets returns the named cluster specs shipped with the library.
func Presets() map[string]Spec {
	return map[string]Spec{
		"systemg": SystemG(),
		"dori":    Dori(),
	}
}
