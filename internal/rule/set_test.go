package rule

import (
	"math"
	"math/rand"
	"testing"
)

func makeTestSet() *Set {
	r0 := NewWildcardRule(0)
	r0.Ranges[DimSrcPort] = Range{Lo: 0, Hi: 1023}
	r1 := NewWildcardRule(1)
	r1.Ranges[DimDstPort] = Range{Lo: 80, Hi: 80}
	r2 := NewWildcardRule(2)
	r2.Ranges[DimProto] = Range{Lo: 17, Hi: 17}
	r3 := NewWildcardRule(3)
	return NewSet([]Rule{r0, r1, r2, r3})
}

func TestSetBasics(t *testing.T) {
	s := makeTestSet()
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !hasDefaultRule(s) {
		t.Fatal("default rule missing")
	}
	for i, r := range s.Rules() {
		if r.Priority != i || r.ID != i {
			t.Errorf("rule %d priority/id = %d/%d", i, r.Priority, r.ID)
		}
	}
	if s.Rule(2).Ranges[DimProto].Lo != 17 {
		t.Error("Rule(2) wrong")
	}
	for i, r := range s.Rules() {
		if err := r.Validate(); err != nil {
			t.Errorf("rule %d: Validate: %v", i, err)
		}
	}
}

func TestSetMatch(t *testing.T) {
	s := makeTestSet()
	// Packet matching rules 0, 1, 3 -> winner is 0.
	p := Packet{SrcPort: 100, DstPort: 80, Proto: 6}
	got, ok := s.Match(p)
	if !ok || got.Priority != 0 {
		t.Fatalf("Match = %v %v", got, ok)
	}
	if idx := s.MatchIndex(p); idx != 0 {
		t.Fatalf("MatchIndex = %d", idx)
	}
	// Packet matching only the default rule.
	p2 := Packet{SrcPort: 5000, DstPort: 443, Proto: 6}
	got, ok = s.Match(p2)
	if !ok || got.Priority != 3 {
		t.Fatalf("Match = %v %v", got, ok)
	}
	// Empty set never matches.
	empty := NewSet(nil)
	if _, ok := empty.Match(p); ok {
		t.Error("empty set matched")
	}
	if empty.MatchIndex(p) != -1 {
		t.Error("empty set MatchIndex != -1")
	}
	if hasDefaultRule(empty) {
		t.Error("empty set has default rule")
	}
}

func TestSetCloneIndependence(t *testing.T) {
	s := makeTestSet()
	c := s.Clone()
	c.Remove(0)
	if s.Len() != 4 || c.Len() != 3 {
		t.Fatalf("clone not independent: %d %d", s.Len(), c.Len())
	}
}

func TestSetInsertRemove(t *testing.T) {
	s := makeTestSet()
	r := NewWildcardRule(0)
	r.Ranges[DimProto] = Range{Lo: 1, Hi: 1}
	s.Insert(1, r)
	if s.Len() != 5 {
		t.Fatalf("Len after insert = %d", s.Len())
	}
	if s.Rule(1).Ranges[DimProto].Lo != 1 {
		t.Error("inserted rule not at position 1")
	}
	for i, rr := range s.Rules() {
		if rr.Priority != i {
			t.Errorf("priority %d at index %d after insert", rr.Priority, i)
		}
	}
	s.Remove(1)
	if s.Len() != 4 {
		t.Fatalf("Len after remove = %d", s.Len())
	}
	// Out-of-range operations are no-ops / clamped.
	s.Remove(99)
	s.Remove(-1)
	if s.Len() != 4 {
		t.Fatal("out-of-range remove changed the set")
	}
	s.Insert(-5, r)
	s.Insert(99, r)
	if s.Len() != 6 {
		t.Fatalf("clamped inserts failed: %d", s.Len())
	}
}

func TestNewSetKeepPriorities(t *testing.T) {
	a := NewWildcardRule(5)
	a.ID = 100
	b := NewWildcardRule(2)
	b.ID = 200
	s := NewSetKeepPriorities([]Rule{a, b})
	if s.Rule(0).Priority != 2 || s.Rule(0).ID != 200 {
		t.Fatalf("sorting by priority failed: %+v", s.Rules())
	}
}

func TestDistinctCounts(t *testing.T) {
	rules := []Rule{}
	for i := 0; i < 4; i++ {
		r := NewWildcardRule(i)
		r.Ranges[DimSrcPort] = Range{Lo: uint64(i * 10), Hi: uint64(i*10 + 5)}
		rules = append(rules, r)
	}
	all := []int32{0, 1, 2, 3}
	if got := DistinctRangeCount(rules, all, DimSrcPort); got != 4 {
		t.Errorf("DistinctRangeCount = %d", got)
	}
	if got := DistinctRangeCount(rules, all[1:3], DimSrcPort); got != 2 {
		t.Errorf("DistinctRangeCount(two members) = %d", got)
	}
	if got := DistinctRangeCount(rules, all, DimDstPort); got != 1 {
		t.Errorf("DistinctRangeCount(wildcard dim) = %d", got)
	}
	box := Range{Lo: 0, Hi: 15}
	if got := DistinctValueCount(rules, all, DimSrcPort, box); got != 4 {
		// endpoints 0,5,10,15 within the box
		t.Errorf("DistinctValueCount = %d", got)
	}
}

func TestValidateCatchesBadRules(t *testing.T) {
	bad := NewWildcardRule(0)
	bad.Ranges[DimSrcPort] = Range{Lo: 10, Hi: 5}
	if err := bad.Validate(); err == nil {
		t.Error("inverted range not caught")
	}
	bad2 := NewWildcardRule(0)
	bad2.Ranges[DimProto] = Range{Lo: 0, Hi: 300}
	if err := bad2.Validate(); err == nil {
		t.Error("overflow range not caught")
	}
}

// distinctRangeCountRef is DistinctRangeCount as it was before it sorted:
// a set of the ranges.
func distinctRangeCountRef(rules []Rule, members []int32, d Dimension) int {
	seen := make(map[Range]struct{}, len(members))
	for _, i := range members {
		seen[rules[i].Ranges[d]] = struct{}{}
	}
	return len(seen)
}

// TestDistinctRangeCountMatchesReference holds the sorted count to the set
// of ranges on random member lists drawn from a small pool of ranges, so
// duplicates are common: wildcards, ranges ending at 2^32-1, single values,
// ranges that agree on one end only, and ranges wider than 32 bits, which
// a packed key could not hold.
func TestDistinctRangeCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const top = 1<<32 - 1
	pool := []Range{
		FullRange(DimSrcIP), FullRange(DimSrcPort), {Lo: 0, Hi: 0}, {Lo: top, Hi: top},
		{Lo: 0, Hi: top - 1}, {Lo: 1, Hi: top}, {Lo: 1 << 31, Hi: top}, {Lo: 5, Hi: 5},
		{Lo: 5, Hi: 6}, {Lo: 4, Hi: 6}, {Lo: 80, Hi: 80}, {Lo: 1024, Hi: 65535},
	}
	for i := 0; i < 20; i++ {
		lo := uint64(rng.Uint32())
		pool = append(pool, Range{Lo: lo, Hi: lo + uint64(rng.Int63n(int64(top-lo+1)))})
	}
	wide := []Range{{Lo: 0, Hi: 1 << 32}, {Lo: 1 << 32, Hi: 1 << 32}, {Lo: 1, Hi: 1<<32 + 1}, {Lo: 0, Hi: math.MaxUint64}}
	for trial := 0; trial < 400; trial++ {
		p := pool
		if trial%4 == 3 {
			p = append(append([]Range(nil), pool...), wide...)
		}
		rules := make([]Rule, 1+rng.Intn(200))
		for i := range rules {
			rules[i] = NewWildcardRule(i)
			rules[i].Ranges[DimDstIP] = p[rng.Intn(len(p))]
		}
		var members []int32
		for i := range rules {
			if rng.Intn(3) > 0 {
				members = append(members, int32(i))
			}
		}
		for _, d := range []Dimension{DimDstIP, DimProto} {
			if got, want := DistinctRangeCount(rules, members, d), distinctRangeCountRef(rules, members, d); got != want {
				t.Fatalf("trial %d, %s, %d members: %d distinct ranges, reference %d", trial, d, len(members), got, want)
			}
		}
	}
}
