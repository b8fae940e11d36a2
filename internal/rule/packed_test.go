package rule

import (
	"math/rand"
	"testing"
)

// rangeShapes returns the range shapes the kernel test crosses per field:
// a point, the full wildcard, a range starting at 0, a range ending at the
// field's maximum, the maximum alone, and an interior range.
func rangeShapes(d Dimension) []Range {
	max := d.MaxValue()
	mid := max / 2
	return []Range{
		{Lo: mid, Hi: mid},
		{Lo: 0, Hi: max},
		{Lo: 0, Hi: mid},
		{Lo: mid, Hi: max},
		{Lo: max, Hi: max},
		{Lo: mid / 2, Hi: mid + mid/2},
	}
}

// probeValues returns the packet values tried against rg in dimension d: the
// ends of the field and both sides of both range bounds, where an off-by-one
// or a guard-bit carry would show.
func probeValues(d Dimension, rg Range) []uint64 {
	max := d.MaxValue()
	vals := []uint64{0, max, rg.Lo, rg.Hi, rg.Lo + (rg.Hi-rg.Lo)/2}
	if rg.Lo > 0 {
		vals = append(vals, rg.Lo-1)
	}
	if rg.Hi < max {
		vals = append(vals, rg.Hi+1)
	}
	return vals
}

func packetOf(f [NumDims]uint64) Packet {
	return Packet{
		SrcIP: uint32(f[DimSrcIP]), DstIP: uint32(f[DimDstIP]),
		SrcPort: uint16(f[DimSrcPort]), DstPort: uint16(f[DimDstPort]),
		Proto: uint8(f[DimProto]),
	}
}

func checkKernel(t *testing.T, r Rule, p Packet) {
	t.Helper()
	pr := Pack(&r)
	if got, want := pr.Matches(p.Key()), r.Matches(p); got != want {
		t.Fatalf("rule %v packet %v: kernel says %v, Rule.Matches says %v", r, p, got, want)
	}
}

// TestPackedMatchesEqualsRuleMatches is the kernel's property test: for every
// field, every range shape and every boundary value, the packed kernel must
// agree with Rule.Matches. The other fields sit either on wildcards or on
// point ranges at the top of their width with the packet on the point —
// 0xFFFF ports, protocol 255 and address 0xFFFFFFFF are where a borrow would
// cross a guard bit into the neighbouring field.
func TestPackedMatchesEqualsRuleMatches(t *testing.T) {
	for _, d := range Dimensions() {
		for _, others := range []string{"wildcard", "max-point", "zero-point"} {
			for _, rg := range rangeShapes(d) {
				r := NewWildcardRule(0)
				var f [NumDims]uint64
				for _, o := range Dimensions() {
					switch others {
					case "max-point":
						r.Ranges[o] = Range{Lo: o.MaxValue(), Hi: o.MaxValue()}
						f[o] = o.MaxValue()
					case "zero-point":
						r.Ranges[o] = Range{Lo: 0, Hi: 0}
					}
				}
				r.Ranges[d] = rg
				for _, v := range probeValues(d, rg) {
					f[d] = v
					checkKernel(t, r, packetOf(f))
				}
			}
		}
	}
}

// TestPackedMatchesRandom crosses random rules and packets drawn from the
// boundary palette in every field at once.
func TestPackedMatchesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func(d Dimension) uint64 {
		max := d.MaxValue()
		return []uint64{0, 1, max / 2, max/2 + 1, max - 1, max, rng.Uint64() % (max + 1)}[rng.Intn(7)]
	}
	for i := 0; i < 200000; i++ {
		var r Rule
		var f [NumDims]uint64
		for _, d := range Dimensions() {
			a, b := pick(d), pick(d)
			if a > b {
				a, b = b, a
			}
			r.Ranges[d] = Range{Lo: a, Hi: b}
			f[d] = pick(d)
			if rng.Intn(3) == 0 {
				// Steer inside, so matches are not vanishingly rare.
				f[d] = a + (b-a)/2
			}
		}
		checkKernel(t, r, packetOf(f))
	}
}

// TestPackUnsatisfiable covers the rules Validate would reject but journals
// can carry: an empty range or one wholly beyond the field's width packs to a
// record that matches no packet at all, and a range merely reaching beyond
// the width is clipped — both exactly what Rule.Matches answers.
func TestPackUnsatisfiable(t *testing.T) {
	probes := []Packet{
		{},
		{SrcIP: ^uint32(0), DstIP: ^uint32(0), SrcPort: ^uint16(0), DstPort: ^uint16(0), Proto: ^uint8(0)},
		{SrcIP: 1, DstIP: 1, SrcPort: 1, DstPort: 1, Proto: 1},
	}
	for _, d := range Dimensions() {
		max := d.MaxValue()
		for _, rg := range []Range{
			{Lo: 5, Hi: 4},                // empty
			{Lo: max + 1, Hi: max + 9},    // wholly beyond the width
			{Lo: max, Hi: max + 1<<40},    // reaches beyond: clipped to max
			{Lo: 0, Hi: ^uint64(0)},       // everything and more
			{Lo: ^uint64(0), Hi: 0},       // empty at the extremes
			{Lo: 1 << 63, Hi: 1<<63 + 10}, // far beyond
		} {
			r := NewWildcardRule(0)
			r.Ranges[d] = rg
			pr := Pack(&r)
			satisfiable := rg.Lo <= rg.Hi && rg.Lo <= max
			for _, p := range probes {
				checkKernel(t, r, p)
				if !satisfiable && pr.Matches(p.Key()) {
					t.Fatalf("%s range %v: unsatisfiable rule matched %v", d, rg, p)
				}
			}
			// One packet that sits on the range's low end when it has one.
			var f [NumDims]uint64
			f[d] = min(rg.Lo, max)
			checkKernel(t, r, packetOf(f))
		}
	}
}
