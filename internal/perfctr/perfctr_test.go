package perfctr

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// ranksOf lists the ranks the String table has a row for, in row order.
func ranksOf(s Set) []int {
	var out []int
	for _, line := range strings.Split(s.String(), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] == "total" {
			continue
		}
		r, err := strconv.Atoi(f[0])
		if err != nil {
			panic(err)
		}
		out = append(out, r)
	}
	return out
}

func TestAddAndTotal(t *testing.T) {
	s := make(Set, 2)
	s[0].AddCompute(100)
	s[0].AddMemory(10)
	s[1].AddCompute(200)
	s[1].AddMessage(512)
	s[1].AddMessage(1024)

	total := s.Total()
	if total.OnChipOps != 300 {
		t.Fatalf("on-chip total = %g, want 300", total.OnChipOps)
	}
	if total.OffChipAccesses != 10 {
		t.Fatalf("off-chip total = %g, want 10", total.OffChipAccesses)
	}
	if total.Messages != 2 || total.BytesSent != 1536 {
		t.Fatalf("M=%d B=%g, want 2/1536", total.Messages, total.BytesSent)
	}
}

// The set is dense: the table has one row per rank, in rank order,
// touched or not, and the total sums them all.
func TestRanksSorted(t *testing.T) {
	s := make(Set, 6)
	for _, r := range []int{5, 1, 3} {
		s[r].AddCompute(1)
	}
	got := ranksOf(s)
	if len(got) != 6 {
		t.Fatalf("ranks = %v, want one row per rank", got)
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("ranks = %v, want 0..5 in order", got)
		}
	}
	if total := s.Total(); total.OnChipOps != 3 {
		t.Fatalf("total on-chip = %g, want 3", total.OnChipOps)
	}
}

func TestNegativePanics(t *testing.T) {
	cases := []func(c *Counters){
		func(c *Counters) { c.AddCompute(-1) },
		func(c *Counters) { c.AddMemory(-1) },
		func(c *Counters) { c.AddMessage(-1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: negative increment must panic", i)
				}
			}()
			f(&Counters{})
		}()
	}
}

func TestStringTable(t *testing.T) {
	s := make(Set, 1)
	s[0].AddCompute(42)
	out := s.String()
	if !strings.Contains(out, "total") || !strings.Contains(out, "42") {
		t.Fatalf("table missing content:\n%s", out)
	}
}

// Property: Total is additive — merging counters from any two rank sets
// equals the sum of per-rank contributions.
func TestTotalAdditiveProperty(t *testing.T) {
	f := func(a, b uint16, ma, mb uint8) bool {
		s := make(Set, 2)
		s[0].AddCompute(float64(a))
		s[1].AddCompute(float64(b))
		for i := 0; i < int(ma); i++ {
			s[0].AddMessage(10)
		}
		for i := 0; i < int(mb); i++ {
			s[1].AddMessage(20)
		}
		tot := s.Total()
		return tot.OnChipOps == float64(a)+float64(b) &&
			tot.Messages == int64(ma)+int64(mb) &&
			tot.BytesSent == 10*float64(ma)+20*float64(mb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
