package rule

// This file is the repository's one packed match kernel: a 32-byte
// match-only projection of a rule and a branch-free test of a packet against
// it. Every serving path that scans rules linearly — compiled leaf scans
// (scalar and batched), the update overlay and its tombstone rescan — bottoms
// out here; Rule.Matches stays as the readable reference the kernel is tested
// against.
//
// The three narrow fields live in one 64-bit word each for the low and the
// high bounds, every field followed by a guard bit:
//
//	bit  42  41..34  33  32..17  16  15..0
//	      g  proto    g  dport    g  sport
//
// With the guards set in the minuend and clear in the subtrahend, one 64-bit
// subtraction compares all three fields at once: field f of (a|guards)-b is
// a_f + 2^w - b_f, which lies in [1, 2^(w+1)-1], so no borrow ever crosses a
// field, and its guard bit survives exactly when a_f >= b_f. The two 32-bit
// addresses are compared as four 64-bit differences whose sign bits OR
// together. A whole rule is one predictable branch instead of ten.

const (
	packSrcPort = 0
	packDstPort = 17
	packProto   = 34
	packGuards  = 1<<16 | 1<<33 | 1<<42
)

// Packed is the match-only projection of one rule (see Pack).
type Packed struct {
	srcLo, srcHi uint32
	dstLo, dstHi uint32
	// lo holds the narrow fields' low bounds with the guards clear, hi their
	// high bounds with the guards set.
	lo, hi uint64
}

// PackedKey is a packet in the kernel's operand form. It is four words so the
// compiler keeps it in registers across a scan loop.
type PackedKey struct {
	src, dst uint64
	// k holds the narrow fields with the guards clear, kg with them set.
	k, kg uint64
}

func packNarrow(sport, dport, proto uint64) uint64 {
	return sport<<packSrcPort | dport<<packDstPort | proto<<packProto
}

// Pack projects r to its packed record. Ranges are clipped to their field's
// width, and a rule with a range no packet can satisfy (empty, or wholly
// beyond the width) becomes a record that matches nothing, so the record
// agrees with r.Matches on every packet even for rules that would fail
// Validate (journals are outside input).
func Pack(r *Rule) Packed {
	var lo, hi [NumDims]uint64
	for d, rg := range r.Ranges {
		lo[d], hi[d] = rg.Lo, min(rg.Hi, Dimension(d).MaxValue())
		if lo[d] > hi[d] {
			return Packed{srcLo: 1} // srcLo > srcHi: no address is in range
		}
	}
	return Packed{
		srcLo: uint32(lo[DimSrcIP]), srcHi: uint32(hi[DimSrcIP]),
		dstLo: uint32(lo[DimDstIP]), dstHi: uint32(hi[DimDstIP]),
		lo: packNarrow(lo[DimSrcPort], lo[DimDstPort], lo[DimProto]),
		hi: packNarrow(hi[DimSrcPort], hi[DimDstPort], hi[DimProto]) | packGuards,
	}
}

// PackRules packs every rule of a list, index-aligned.
func PackRules(rules []Rule) []Packed {
	out := make([]Packed, len(rules))
	for i := range rules {
		out[i] = Pack(&rules[i])
	}
	return out
}

// Key returns the packet in the kernel's operand form.
func (p Packet) Key() PackedKey {
	k := packNarrow(uint64(p.SrcPort), uint64(p.DstPort), uint64(p.Proto))
	return PackedKey{src: uint64(p.SrcIP), dst: uint64(p.DstIP), k: k, kg: k | packGuards}
}

// Matches reports whether the packet behind k lies inside the rule behind r.
// It is equivalent to Rule.Matches on the rule r was packed from.
func (r *Packed) Matches(k PackedKey) bool {
	// Any address outside its range leaves a borrow in bit 63.
	ip := (k.src - uint64(r.srcLo)) | (uint64(r.srcHi) - k.src) |
		(k.dst - uint64(r.dstLo)) | (uint64(r.dstHi) - k.dst)
	// A narrow field outside its range clears its guard in one of the two.
	narrow := (k.kg - r.lo) & (r.hi - k.k)
	return ip>>63|(^narrow&packGuards) == 0
}
