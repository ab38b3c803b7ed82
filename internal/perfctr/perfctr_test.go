package perfctr

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// ranksOf lists the ranks the String table has a row for, in row order.
func ranksOf(s *Set) []int {
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
	s := NewSet()
	s.Rank(0).AddCompute(100)
	s.Rank(0).AddMemory(10)
	s.Rank(1).AddCompute(200)
	s.Rank(1).AddMessage(512)
	s.Rank(1).AddMessage(1024)

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

func TestRanksSorted(t *testing.T) {
	s := NewSet()
	for _, r := range []int{5, 1, 3} {
		s.Rank(r).AddCompute(1)
	}
	got := ranksOf(s)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("ranks = %v", got)
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
	s := NewSet()
	s.Rank(0).AddCompute(42)
	out := s.String()
	if !strings.Contains(out, "total") || !strings.Contains(out, "42") {
		t.Fatalf("table missing content:\n%s", out)
	}
}

// Property: Total is additive — merging counters from any two rank sets
// equals the sum of per-rank contributions.
func TestTotalAdditiveProperty(t *testing.T) {
	f := func(a, b uint16, ma, mb uint8) bool {
		s := NewSet()
		s.Rank(0).AddCompute(float64(a))
		s.Rank(1).AddCompute(float64(b))
		for i := 0; i < int(ma); i++ {
			s.Rank(0).AddMessage(10)
		}
		for i := 0; i < int(mb); i++ {
			s.Rank(1).AddMessage(20)
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

// The set is a dense slice: a negative rank is a caller bug and panics
// with the package's prefix instead of a bare index error.
func TestNegativeRankPanics(t *testing.T) {
	for _, s := range []*Set{NewSet(), {byRank: make([]*Counters, 4)}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "perfctr: negative rank -1") {
					t.Errorf("Rank(-1) panicked with %q, want a perfctr: message", msg)
				}
			}()
			s.Rank(-1)
		}()
		if got := ranksOf(s); len(got) != 0 {
			t.Errorf("a rejected rank left entries behind: %v", got)
		}
	}
}

// Sparse use: only touched ranks exist, however far apart they are.
func TestSparseRanks(t *testing.T) {
	s := NewSet()
	if got := ranksOf(s); len(got) != 0 {
		t.Fatalf("empty set has ranks %v", got)
	}
	s.Rank(1000).AddCompute(7)
	if got := ranksOf(s); len(got) != 1 || got[0] != 1000 {
		t.Fatalf("ranks = %v, want [1000]", got)
	}
	if s.Rank(1000) != s.Rank(1000) {
		t.Fatal("Rank must return the same counters on every call")
	}
	s.Rank(3).AddCompute(1)
	if got := ranksOf(s); len(got) != 2 || got[0] != 3 || got[1] != 1000 {
		t.Fatalf("ranks = %v, want [3 1000]", got)
	}
	if total := s.Total(); total.OnChipOps != 8 {
		t.Fatalf("total on-chip = %g, want 8 (two ranks)", total.OnChipOps)
	}
	if rows := strings.Count(s.String(), "\n"); rows != 4 {
		t.Fatalf("table has %d lines, want header + 2 ranks + total:\n%s", rows, s)
	}
}

// BenchmarkSetRank is the lookup the cluster does on every operation
// half: an existing rank of a 64-rank set.
func BenchmarkSetRank(b *testing.B) {
	s := NewSet()
	for r := 0; r < 64; r++ {
		s.Rank(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rank(i%64).Messages++
	}
}
