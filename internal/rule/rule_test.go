package rule

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDimensionBits(t *testing.T) {
	cases := []struct {
		d    Dimension
		bits uint
		max  uint64
	}{
		{DimSrcIP, 32, 0xFFFFFFFF},
		{DimDstIP, 32, 0xFFFFFFFF},
		{DimSrcPort, 16, 0xFFFF},
		{DimDstPort, 16, 0xFFFF},
		{DimProto, 8, 0xFF},
	}
	for _, c := range cases {
		if got := c.d.Bits(); got != c.bits {
			t.Errorf("%s.Bits() = %d, want %d", c.d, got, c.bits)
		}
		if got := c.d.MaxValue(); got != c.max {
			t.Errorf("%s.MaxValue() = %d, want %d", c.d, got, c.max)
		}
	}
	if len(Dimensions()) != NumDims {
		t.Fatalf("Dimensions() has %d entries, want %d", len(Dimensions()), NumDims)
	}
}

func TestDimensionString(t *testing.T) {
	want := map[Dimension]string{
		DimSrcIP: "SrcIP", DimDstIP: "DstIP", DimSrcPort: "SrcPort",
		DimDstPort: "DstPort", DimProto: "Proto",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("Dimension(%d).String() = %q, want %q", d, d.String(), s)
		}
	}
	if Dimension(99).String() != "Dim(99)" {
		t.Errorf("unknown dimension string = %q", Dimension(99).String())
	}
}

func TestRangeBasics(t *testing.T) {
	r := Range{Lo: 10, Hi: 20}
	if !r.Contains(10) || !r.Contains(20) || !r.Contains(15) {
		t.Error("Contains should include endpoints and interior")
	}
	if r.Contains(9) || r.Contains(21) {
		t.Error("Contains should exclude values outside")
	}
	if r.Size() != 11 {
		t.Errorf("Size = %d, want 11", r.Size())
	}
	if got := (Range{Lo: 5, Hi: 3}).Size(); got != 0 {
		t.Errorf("inverted range size = %d, want 0", got)
	}
	if got, ok := r.Intersect(Range{Lo: 20, Hi: 30}); !ok || got != (Range{Lo: 20, Hi: 20}) {
		t.Error("ranges sharing an endpoint overlap in it")
	}
	if _, ok := r.Intersect(Range{Lo: 21, Hi: 30}); ok {
		t.Error("disjoint ranges must not overlap")
	}
	if !r.Covers(Range{Lo: 12, Hi: 18}) || r.Covers(Range{Lo: 12, Hi: 22}) {
		t.Error("Covers is containment")
	}
	if got, ok := r.Intersect(Range{Lo: 15, Hi: 30}); !ok || got != (Range{Lo: 15, Hi: 20}) {
		t.Errorf("Intersect = %v,%v", got, ok)
	}
	if _, ok := r.Intersect(Range{Lo: 30, Hi: 40}); ok {
		t.Error("disjoint intersect should report empty")
	}
	if r.String() != "[10, 20]" {
		t.Errorf("String = %q", r.String())
	}
}

func TestFullRange(t *testing.T) {
	for _, d := range Dimensions() {
		fr := FullRange(d)
		if !fr.IsFull(d) {
			t.Errorf("FullRange(%s) not full", d)
		}
		if fr.FractionOf(d) != 1.0 {
			t.Errorf("FullRange(%s).FractionOf = %v", d, fr.FractionOf(d))
		}
	}
	if (Range{Lo: 0, Hi: 100}).IsFull(DimSrcPort) {
		t.Error("partial range reported full")
	}
}

func TestPrefixRange(t *testing.T) {
	// 10.0.0.0/8
	addr, err := ParseIPv4("10.0.0.0")
	if err != nil {
		t.Fatal(err)
	}
	r := PrefixRange(uint64(addr), 8, 32)
	wantLo, _ := ParseIPv4("10.0.0.0")
	wantHi, _ := ParseIPv4("10.255.255.255")
	if r.Lo != uint64(wantLo) || r.Hi != uint64(wantHi) {
		t.Errorf("10.0.0.0/8 = %s", r)
	}
	// /0 is the full space.
	if got := PrefixRange(12345, 0, 32); !got.IsFull(DimSrcIP) {
		t.Errorf("/0 prefix = %s, want full", got)
	}
	// /32 is a single host.
	if got := PrefixRange(uint64(addr), 32, 32); got.Lo != got.Hi || got.Lo != uint64(addr) {
		t.Errorf("/32 prefix = %s", got)
	}
	// Non-aligned address bits below the prefix are masked off.
	a2, _ := ParseIPv4("10.1.2.3")
	if got := PrefixRange(uint64(a2), 16, 32); got.Lo != uint64(a2)&0xFFFF0000 {
		t.Errorf("masking failed: %s", got)
	}
}

func TestPrefixLenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		plen := uint(rng.Intn(33))
		addr := uint64(rng.Uint32())
		r := PrefixRange(addr, plen, 32)
		got, ok := r.PrefixLen(32)
		if !ok {
			t.Fatalf("prefix range %s not recognised as prefix", r)
		}
		if got != plen {
			t.Fatalf("PrefixLen(%s) = %d, want %d", r, got, plen)
		}
	}
	// A non-power-of-two-sized range is not a prefix.
	if _, ok := (Range{Lo: 0, Hi: 2}).PrefixLen(32); ok {
		t.Error("size-3 range misreported as prefix")
	}
	// A power-of-two-sized range that is misaligned is not a prefix.
	if _, ok := (Range{Lo: 1, Hi: 2}).PrefixLen(32); ok {
		t.Error("misaligned range misreported as prefix")
	}
}

func TestParseFormatIPv4(t *testing.T) {
	addr, err := ParseIPv4("192.168.1.7")
	if err != nil {
		t.Fatal(err)
	}
	if addr != 0xC0A80107 {
		t.Fatalf("ParseIPv4 = %#x", addr)
	}
	if FormatIPv4(addr) != "192.168.1.7" {
		t.Fatalf("FormatIPv4 = %q", FormatIPv4(addr))
	}
	if _, err := ParseIPv4("300.1.1.1"); err == nil {
		t.Error("octet out of range should fail")
	}
	if _, err := ParseIPv4("not-an-ip"); err == nil {
		t.Error("garbage should fail")
	}
}

// TestPaperFigure1 reproduces the three-rule classifier of Figure 1 in the
// paper and the matching example discussed in Section 2.1: the packet
// (10.0.0.0, 10.0.0.1, 0, 0, 6) matches all three rules and must be assigned
// to the highest-priority one.
func TestPaperFigure1(t *testing.T) {
	srcIP, _ := ParseIPv4("10.0.0.0")
	dstPrefix, _ := ParseIPv4("10.0.0.0")

	r0 := NewWildcardRule(0)
	r0.Ranges[DimSrcIP] = PrefixRange(uint64(srcIP), 32, 32)
	r0.Ranges[DimDstIP] = PrefixRange(uint64(dstPrefix), 16, 32)

	r1 := NewWildcardRule(1)
	r1.Ranges[DimSrcPort] = Range{Lo: 0, Hi: 1023}
	r1.Ranges[DimDstPort] = Range{Lo: 0, Hi: 1023}
	r1.Ranges[DimProto] = Range{Lo: 6, Hi: 6} // TCP

	r2 := NewWildcardRule(2) // default rule

	set := NewSet([]Rule{r0, r1, r2})
	if !hasDefaultRule(set) {
		t.Fatal("classifier should have a default rule")
	}

	dstIP, _ := ParseIPv4("10.0.0.1")
	pkt := Packet{SrcIP: srcIP, DstIP: dstIP, SrcPort: 0, DstPort: 0, Proto: 6}

	for i, r := range set.Rules() {
		if !r.Matches(pkt) {
			t.Errorf("rule %d should match the example packet", i)
		}
	}
	got, ok := set.Match(pkt)
	if !ok || got.Priority != 0 {
		t.Fatalf("Match = %v, %v; want the priority-0 rule", got, ok)
	}

	// A UDP packet from a different source only matches the default rule.
	other := Packet{SrcIP: 0x01020304, DstIP: dstIP, SrcPort: 53, DstPort: 53, Proto: 17}
	got, ok = set.Match(other)
	if !ok || got.Priority != 2 {
		t.Fatalf("Match(other) = %v, %v; want default rule", got, ok)
	}
}

// TestRuleBoxOperations: what a tree node does with a rule's ranges against
// its box, dimension by dimension — overlap, and clipping to the box.
func TestRuleBoxOperations(t *testing.T) {
	r := NewWildcardRule(0)
	r.Ranges[DimSrcPort] = Range{Lo: 100, Hi: 200}

	var box [NumDims]Range
	for _, d := range Dimensions() {
		box[d] = FullRange(d)
	}
	box[DimSrcPort] = Range{Lo: 150, Hi: 300}
	if !overlapsBox(r, box) {
		t.Error("rule should overlap box sharing [150,200]")
	}
	if clipped, ok := r.Ranges[DimSrcPort].Intersect(box[DimSrcPort]); !ok || clipped != (Range{Lo: 150, Hi: 200}) {
		t.Errorf("clip to box = %v, %v; want [150,200]", clipped, ok)
	}
	box[DimSrcPort] = Range{Lo: 300, Hi: 400}
	if overlapsBox(r, box) {
		t.Error("disjoint box should not overlap")
	}
	if _, ok := r.Ranges[DimSrcPort].Intersect(box[DimSrcPort]); ok {
		t.Error("clip to a disjoint box should be empty")
	}
}

// overlapsBox reports whether r's ranges intersect box in every dimension.
func overlapsBox(r Rule, box [NumDims]Range) bool {
	for _, d := range Dimensions() {
		if _, ok := r.Ranges[d].Intersect(box[d]); !ok {
			return false
		}
	}
	return true
}

// hasDefaultRule reports whether s's lowest-priority rule matches every
// packet.
func hasDefaultRule(s *Set) bool {
	if s.Len() == 0 {
		return false
	}
	last := s.Rule(s.Len() - 1)
	for _, d := range Dimensions() {
		if !last.Ranges[d].IsFull(d) {
			return false
		}
	}
	return true
}

func TestRuleWildcardsAndCoverage(t *testing.T) {
	r := NewWildcardRule(0)
	r.Ranges[DimProto] = Range{Lo: 6, Hi: 6}
	if r.Ranges[DimProto].IsFull(DimProto) {
		t.Error("proto no longer wildcard")
	}
	if got := r.Coverage(DimProto); got > 0.004 {
		t.Errorf("proto coverage = %v", got)
	}
	if got := r.Coverage(DimSrcIP); got != 1.0 {
		t.Errorf("full coverage = %v", got)
	}
}

func TestPacketFieldAndString(t *testing.T) {
	p := Packet{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 1234, DstPort: 80, Proto: 6}
	if p.Field(DimSrcIP) != 0x0A000001 || p.Field(DimDstIP) != 0x0A000002 {
		t.Error("IP fields wrong")
	}
	if p.Field(DimSrcPort) != 1234 || p.Field(DimDstPort) != 80 || p.Field(DimProto) != 6 {
		t.Error("port/proto fields wrong")
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
	var unknown Dimension = 42
	if p.Field(unknown) != 0 {
		t.Error("unknown dimension should read as 0")
	}
}

func TestRuleString(t *testing.T) {
	r := NewWildcardRule(7)
	s := r.String()
	if s == "" || r.Priority != 7 {
		t.Errorf("String = %q", s)
	}
}

// Property: a rule matches a packet iff, treating the packet as a degenerate
// box, the rule overlaps that box.
func TestPropertyMatchEqualsBoxOverlap(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRule(rng)
		p := Packet{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		var box [NumDims]Range
		for _, d := range Dimensions() {
			v := p.Field(d)
			box[d] = Range{Lo: v, Hi: v}
		}
		return r.Matches(p) == overlapsBox(r, box)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Intersect is commutative and its result is covered by both
// operands.
func TestPropertyIntersect(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		r1 := Range{Lo: uint64(min16(a, b)), Hi: uint64(max16(a, b))}
		r2 := Range{Lo: uint64(min16(c, d)), Hi: uint64(max16(c, d))}
		i1, ok1 := r1.Intersect(r2)
		i2, ok2 := r2.Intersect(r1)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return r1.Hi < r2.Lo || r2.Hi < r1.Lo
		}
		return i1 == i2 && r1.Covers(i1) && r2.Covers(i1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomRule builds a random rule: each dimension is either wildcard, a
// prefix, or an arbitrary range.
func randomRule(rng *rand.Rand) Rule {
	r := NewWildcardRule(0)
	for _, d := range Dimensions() {
		switch rng.Intn(3) {
		case 0:
			// wildcard: leave as-is
		case 1:
			plen := uint(rng.Intn(int(d.Bits()) + 1))
			addr := rng.Uint64() & d.MaxValue()
			r.Ranges[d] = PrefixRange(addr, plen, d.Bits())
		case 2:
			a := rng.Uint64() & d.MaxValue()
			b := rng.Uint64() & d.MaxValue()
			if a > b {
				a, b = b, a
			}
			r.Ranges[d] = Range{Lo: a, Hi: b}
		}
	}
	return r
}

func min16(a, b uint16) uint16 {
	if a < b {
		return a
	}
	return b
}

func max16(a, b uint16) uint16 {
	if a > b {
		return a
	}
	return b
}
