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

func TestPresetBandwidths(t *testing.T) {
	// 40 Gb/s → 0.2 ns per byte.
	ib := InfiniBand40G()
	if math.Abs(float64(ib.Tb)-0.2e-9) > 1e-15 {
		t.Fatalf("IB Tb = %v", ib.Tb)
	}
}
