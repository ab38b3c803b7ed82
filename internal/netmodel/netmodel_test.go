package netmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestHockneyLinear(t *testing.T) {
	h := Hockney{Ts: 10e-6, Tb: 1e-9}
	if got := h.MessageTime(0); got != 10e-6 {
		t.Fatalf("zero-byte message = %v, want Ts", got)
	}
	got := h.MessageTime(1000)
	want := units.Seconds(10e-6 + 1000e-9)
	if math.Abs(float64(got-want)) > 1e-15 {
		t.Fatalf("1000B message = %v, want %v", got, want)
	}
}

func TestHockneyNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size must panic")
		}
	}()
	Hockney{}.MessageTime(-1)
}

// Property: Hockney message time is monotone non-decreasing in size and
// additivity of sizes never beats one big message (Ts amortisation).
func TestHockneyMonotoneAndSubadditive(t *testing.T) {
	h := InfiniBand40G()
	f := func(a, b uint32) bool {
		sa, sb := units.Bytes(a%1e6), units.Bytes(b%1e6)
		big := h.MessageTime(sa + sb)
		split := h.MessageTime(sa) + h.MessageTime(sb)
		mono := h.MessageTime(sa) <= h.MessageTime(sa+sb)
		return mono && big <= split+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogGP(t *testing.T) {
	l := LogGP{L: 1e-6, O: 2e-6, G: 1e-9}
	if got := l.MessageTime(0); got != 3e-6 {
		t.Fatalf("0B = %v, want O+L", got)
	}
	got := l.MessageTime(1)
	if math.Abs(float64(got)-3e-6) > 1e-15 {
		t.Fatalf("1B = %v, want O+L", got)
	}
	got = l.MessageTime(1001)
	want := 3e-6 + 1000e-9
	if math.Abs(float64(got)-want) > 1e-15 {
		t.Fatalf("1001B = %v, want %v", got, want)
	}
}

func TestZero(t *testing.T) {
	var z Zero
	if z.MessageTime(1e9) != 0 {
		t.Fatal("zero model must price everything at 0")
	}
	if z.Name() != "zero" {
		t.Fatal("name")
	}
}

func TestPresetBandwidths(t *testing.T) {
	// 40 Gb/s → 0.2 ns per byte.
	ib := InfiniBand40G()
	if math.Abs(float64(ib.Tb)-0.2e-9) > 1e-15 {
		t.Fatalf("IB Tb = %v", ib.Tb)
	}
}

func TestNames(t *testing.T) {
	for _, m := range []Model{Hockney{}, LogGP{}, Zero{}} {
		if m.Name() == "" {
			t.Fatalf("%T: empty name", m)
		}
	}
}
