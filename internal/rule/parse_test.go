package rule

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

const sampleClassBench = `# sample classifier
@10.0.0.0/8	192.168.0.0/16	0 : 65535	1024 : 2048	0x06/0xFF	0x0000/0x0000
@0.0.0.0/0	0.0.0.0/0	53 : 53	0 : 65535	0x11/0xFF	0x0000/0x0000
@172.16.1.0/24	10.10.0.0/16	0 : 1023	80 : 80	0x00/0x00	0x0000/0x0000

@0.0.0.0/0	0.0.0.0/0	0 : 65535	0 : 65535	0x00/0x00	0x0000/0x0000
`

func TestParseClassBench(t *testing.T) {
	s, err := ParseClassBench(strings.NewReader(sampleClassBench))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("parsed %d rules, want 4", s.Len())
	}
	r0 := s.Rule(0)
	lo, _ := ParseIPv4("10.0.0.0")
	hi, _ := ParseIPv4("10.255.255.255")
	if r0.Ranges[DimSrcIP] != (Range{Lo: uint64(lo), Hi: uint64(hi)}) {
		t.Errorf("rule 0 src = %s", r0.Ranges[DimSrcIP])
	}
	if r0.Ranges[DimDstPort] != (Range{Lo: 1024, Hi: 2048}) {
		t.Errorf("rule 0 dst port = %s", r0.Ranges[DimDstPort])
	}
	if r0.Ranges[DimProto] != (Range{Lo: 6, Hi: 6}) {
		t.Errorf("rule 0 proto = %s", r0.Ranges[DimProto])
	}
	r1 := s.Rule(1)
	if !r1.Ranges[DimSrcIP].IsFull(DimSrcIP) || !r1.Ranges[DimDstIP].IsFull(DimDstIP) {
		t.Error("rule 1 should have wildcard IPs")
	}
	if r1.Ranges[DimSrcPort] != (Range{Lo: 53, Hi: 53}) {
		t.Errorf("rule 1 sport = %s", r1.Ranges[DimSrcPort])
	}
	r2 := s.Rule(2)
	if !r2.Ranges[DimProto].IsFull(DimProto) {
		t.Error("rule 2 proto/0x00 mask should be wildcard")
	}
	if !hasDefaultRule(s) {
		t.Error("rule 3 should be the default rule")
	}
}

func TestParseClassBenchErrors(t *testing.T) {
	bad := []string{
		"10.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF 0x0000/0x0000", // missing @
		"@10.0.0.0 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF 0x0000/0x0000",  // missing /len
		"@10.0.0.0/40 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF 0x0",         // prefix too long
		"@10.0.0.0/8 0.0.0.0/0 10 : 5 0 : 65535 0x06/0xFF 0x0000",          // inverted port range
		"@10.0.0.0/8 0.0.0.0/0 0 ; 65535 0 : 65535 0x06/0xFF 0x0000",       // bad separator
		"@10.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 99999 0x06/0xFF 0x0000",       // port overflow
		"@10.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0x0F 0x0000",       // unsupported proto mask
		"@10.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 65535 zz/0xFF 0x0000",         // bad proto value
		"@10.0.0.0/8 0.0.0.0/0 0 : 65535",                                  // too few fields
		"@300.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF 0x0000",      // bad address
	}
	for _, line := range bad {
		if _, err := ParseClassBenchLine(line); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
	if _, err := ParseClassBench(strings.NewReader("@garbage\n")); err == nil {
		t.Error("ParseClassBench should surface line errors")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rules := make([]Rule, 0, 64)
	for i := 0; i < 63; i++ {
		r := NewWildcardRule(i)
		for _, d := range []Dimension{DimSrcIP, DimDstIP} {
			plen := uint(rng.Intn(33))
			r.Ranges[d] = PrefixRange(rng.Uint64()&d.MaxValue(), plen, 32)
		}
		for _, d := range []Dimension{DimSrcPort, DimDstPort} {
			a := uint64(rng.Intn(65536))
			b := uint64(rng.Intn(65536))
			if a > b {
				a, b = b, a
			}
			r.Ranges[d] = Range{Lo: a, Hi: b}
		}
		if rng.Intn(2) == 0 {
			r.Ranges[DimProto] = Range{Lo: uint64(rng.Intn(256)), Hi: 0}
			r.Ranges[DimProto].Hi = r.Ranges[DimProto].Lo
		}
		rules = append(rules, r)
	}
	rules = append(rules, NewWildcardRule(63))
	orig := NewSet(rules)

	var buf bytes.Buffer
	if err := WriteClassBench(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseClassBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != orig.Len() {
		t.Fatalf("round trip length %d != %d", parsed.Len(), orig.Len())
	}
	// IP ranges may have been widened to covering prefixes, but port, proto
	// and prefix-expressible IP ranges must round-trip exactly.
	for i := 0; i < orig.Len(); i++ {
		o, p := orig.Rule(i), parsed.Rule(i)
		for _, d := range []Dimension{DimSrcPort, DimDstPort, DimProto} {
			if o.Ranges[d] != p.Ranges[d] {
				t.Errorf("rule %d dim %s: %s != %s", i, d, o.Ranges[d], p.Ranges[d])
			}
		}
		for _, d := range []Dimension{DimSrcIP, DimDstIP} {
			if _, isPrefix := o.Ranges[d].PrefixLen(32); isPrefix {
				if o.Ranges[d] != p.Ranges[d] {
					t.Errorf("rule %d dim %s: prefix %s did not round-trip (%s)", i, d, o.Ranges[d], p.Ranges[d])
				}
			} else if !p.Ranges[d].Covers(o.Ranges[d]) {
				t.Errorf("rule %d dim %s: widened prefix %s does not cover %s", i, d, p.Ranges[d], o.Ranges[d])
			}
		}
	}
}

func TestFormatClassBenchLine(t *testing.T) {
	r := NewWildcardRule(0)
	r.Ranges[DimProto] = Range{Lo: 6, Hi: 6}
	line := FormatClassBenchLine(r)
	if !strings.HasPrefix(line, "@0.0.0.0/0") || !strings.Contains(line, "0x06/0xFF") {
		t.Errorf("unexpected line %q", line)
	}
	back, err := ParseClassBenchLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ranges != r.Ranges {
		t.Errorf("line round trip mismatch: %v vs %v", back.Ranges, r.Ranges)
	}
}

func TestCoveringPrefix(t *testing.T) {
	// A non-prefix range is widened to the smallest covering prefix.
	addr, plen := coveringPrefix(Range{Lo: 3, Hi: 5}, 32)
	p := PrefixRange(addr, plen, 32)
	if !p.Covers(Range{Lo: 3, Hi: 5}) {
		t.Errorf("covering prefix %s does not cover [3,5]", p)
	}
	// An exact prefix stays exact.
	orig := PrefixRange(0x0A000000, 8, 32)
	addr, plen = coveringPrefix(orig, 32)
	if PrefixRange(addr, plen, 32) != orig {
		t.Error("exact prefix was widened")
	}
	// The full range maps to /0.
	_, plen = coveringPrefix(Range{Lo: 0, Hi: 0xFFFFFFFF}, 32)
	if plen != 0 {
		t.Errorf("full range prefix len = %d", plen)
	}
}

func TestParsePacket(t *testing.T) {
	p, err := ParsePacket("10.0.0.1 192.168.1.1 1234 80 6")
	if err != nil {
		t.Fatal(err)
	}
	if p.SrcIP != 0x0A000001 || p.DstIP != 0xC0A80101 || p.SrcPort != 1234 || p.DstPort != 80 || p.Proto != 6 {
		t.Errorf("parsed %+v", p)
	}
	// Decimal IPs are accepted too.
	p, err = ParsePacket("167772161 3232235777 53 53 17")
	if err != nil || p.SrcIP != 167772161 {
		t.Errorf("decimal parse: %+v %v", p, err)
	}
	bad := []string{
		"1 2 3 4",                 // too few fields
		"x 2 3 4 5",               // bad src
		"1 y 3 4 5",               // bad dst
		"1 2 99999999 4 5",        // port overflow
		"1 2 3 99999999 5",        // port overflow
		"1 2 3 4 999",             // proto overflow
		"300.0.0.1 1.2.3.4 1 2 3", // bad dotted quad
	}
	for _, line := range bad {
		if _, err := ParsePacket(line); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
}

// FuzzParsePacket asserts that no -packet argument, however malformed, can
// panic the parser. Successful parses are round-tripped through the decimal
// encoding to pin down the field order.
func FuzzParsePacket(f *testing.F) {
	seeds := []string{
		"10.0.0.1 192.168.1.1 1234 80 6",
		"167772161 3232235777 53 53 17",
		"0.0.0.0 255.255.255.255 0 65535 255",
		"", " ", "stats", "quit", "batch 3",
		"1 2 3 4", "1 2 3 4 5 6",
		"x y z w v",
		"300.0.0.1 1.2.3.4 1 2 3",
		"-1 2 3 4 5",
		"1 2 99999 4 5",
		"1.2.3.4.5 6.7.8.9 1 2 3",
		"\x00\xff 1 2 3 4",
		"4294967296 1 2 3 4",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		p, err := ParsePacket(line)
		if err != nil {
			return
		}
		if got := len(strings.Fields(line)); got != 5 {
			t.Errorf("ParsePacket(%q) succeeded with %d fields", line, got)
		}
		decimal := fmt.Sprintf("%d %d %d %d %d", p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto)
		again, err := ParsePacket(decimal)
		if err != nil || again != p {
			t.Errorf("round trip of %q via %q: got %+v err %v, want %+v", line, decimal, again, err, p)
		}
	})
}
