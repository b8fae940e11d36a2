// Package rule implements the packet classification rule model used by every
// algorithm in this repository.
//
// A classifier is an ordered list of rules. Each rule constrains the five
// classic header dimensions — source IP, destination IP, source port,
// destination port and protocol — with an inclusive integer range per
// dimension. A packet (represented as a point in the 5-dimensional space)
// matches a rule iff its value in every dimension falls inside the rule's
// range for that dimension. Rules may overlap; ties are broken by priority,
// with the highest priority (lowest Priority value, i.e. first in the list)
// winning, matching the convention of ClassBench filter files.
package rule

import (
	"fmt"
	"strings"
)

// Dimension identifies one of the five classification dimensions.
type Dimension int

// The five classification dimensions, in the canonical NeuroCuts order.
const (
	DimSrcIP Dimension = iota
	DimDstIP
	DimSrcPort
	DimDstPort
	DimProto

	// NumDims is the number of classification dimensions.
	NumDims = 5
)

// String returns the conventional short name of the dimension.
func (d Dimension) String() string {
	switch d {
	case DimSrcIP:
		return "SrcIP"
	case DimDstIP:
		return "DstIP"
	case DimSrcPort:
		return "SrcPort"
	case DimDstPort:
		return "DstPort"
	case DimProto:
		return "Proto"
	default:
		return fmt.Sprintf("Dim(%d)", int(d))
	}
}

// Bits returns the width of the dimension's value space in bits.
func (d Dimension) Bits() uint {
	switch d {
	case DimSrcIP, DimDstIP:
		return 32
	case DimSrcPort, DimDstPort:
		return 16
	case DimProto:
		return 8
	default:
		return 0
	}
}

// MaxValue returns the largest representable value in the dimension.
func (d Dimension) MaxValue() uint64 {
	return (uint64(1) << d.Bits()) - 1
}

// Dimensions lists all five dimensions in canonical order.
func Dimensions() []Dimension {
	return []Dimension{DimSrcIP, DimDstIP, DimSrcPort, DimDstPort, DimProto}
}

// Range is an inclusive integer interval [Lo, Hi] over one dimension.
type Range struct {
	Lo uint64
	Hi uint64
}

// FullRange returns the range that covers the entire value space of d.
func FullRange(d Dimension) Range {
	return Range{Lo: 0, Hi: d.MaxValue()}
}

// Contains reports whether v lies inside the range.
func (r Range) Contains(v uint64) bool {
	return v >= r.Lo && v <= r.Hi
}

// Covers reports whether r fully contains o.
func (r Range) Covers(o Range) bool {
	return r.Lo <= o.Lo && o.Hi <= r.Hi
}

// Intersect returns the intersection of r and o and whether it is non-empty.
func (r Range) Intersect(o Range) (Range, bool) {
	lo := r.Lo
	if o.Lo > lo {
		lo = o.Lo
	}
	hi := r.Hi
	if o.Hi < hi {
		hi = o.Hi
	}
	if lo > hi {
		return Range{}, false
	}
	return Range{Lo: lo, Hi: hi}, true
}

// Size returns the number of values covered by the range. For the full
// 32-bit range this is 2^32 which still fits a uint64.
func (r Range) Size() uint64 {
	if r.Hi < r.Lo {
		return 0
	}
	return r.Hi - r.Lo + 1
}

// IsFull reports whether the range covers the entire value space of d.
func (r Range) IsFull(d Dimension) bool {
	return r.Lo == 0 && r.Hi == d.MaxValue()
}

// FractionOf returns the fraction of the dimension's full value space that
// this range covers, in [0, 1].
func (r Range) FractionOf(d Dimension) float64 {
	full := float64(d.MaxValue()) + 1
	return float64(r.Size()) / full
}

// String renders the range as "[lo, hi]".
func (r Range) String() string {
	return fmt.Sprintf("[%d, %d]", r.Lo, r.Hi)
}

// PrefixRange converts an address/mask-length prefix into a Range over a
// dimension with the given bit width. A prefix length of 0 yields the full
// range.
func PrefixRange(addr uint64, prefixLen, bits uint) Range {
	if prefixLen == 0 {
		return Range{Lo: 0, Hi: (uint64(1) << bits) - 1}
	}
	if prefixLen > bits {
		prefixLen = bits
	}
	hostBits := bits - prefixLen
	mask := ^uint64(0) << hostBits
	mask &= (uint64(1) << bits) - 1
	lo := addr & mask
	hi := lo | ((uint64(1) << hostBits) - 1)
	return Range{Lo: lo, Hi: hi}
}

// PrefixLen reports whether the range is expressible as a single prefix over
// a space of the given bit width, and if so returns its length.
func (r Range) PrefixLen(bits uint) (uint, bool) {
	size := r.Size()
	if size == 0 || size&(size-1) != 0 {
		return 0, false
	}
	if r.Lo%size != 0 {
		return 0, false
	}
	// size = 2^hostBits
	hostBits := uint(0)
	for s := size; s > 1; s >>= 1 {
		hostBits++
	}
	if hostBits > bits {
		return 0, false
	}
	return bits - hostBits, true
}

// Packet is a point in the 5-dimensional classification space: the header
// fields a classifier inspects. See internal/packet for conversion to and
// from wire-format headers.
type Packet struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Field returns the packet's value in dimension d.
func (p Packet) Field(d Dimension) uint64 {
	switch d {
	case DimSrcIP:
		return uint64(p.SrcIP)
	case DimDstIP:
		return uint64(p.DstIP)
	case DimSrcPort:
		return uint64(p.SrcPort)
	case DimDstPort:
		return uint64(p.DstPort)
	case DimProto:
		return uint64(p.Proto)
	default:
		return 0
	}
}

// String renders the packet as a 5-tuple.
func (p Packet) String() string {
	return fmt.Sprintf("(%s -> %s, %d -> %d, proto %d)",
		FormatIPv4(p.SrcIP), FormatIPv4(p.DstIP), p.SrcPort, p.DstPort, p.Proto)
}

// Rule is a single classification rule: one inclusive range per dimension
// plus a priority. Lower Priority values are preferred (priority 0 is the
// highest-priority rule), matching list order in a classifier.
type Rule struct {
	// Ranges holds the matching condition per dimension, indexed by Dimension.
	Ranges [NumDims]Range
	// Priority orders overlapping rules; lower wins.
	Priority int
	// ID is an arbitrary caller-assigned identifier (defaults to list index).
	ID int
}

// NewWildcardRule returns a rule that matches every packet.
func NewWildcardRule(priority int) Rule {
	var r Rule
	r.Priority = priority
	r.ID = priority
	for _, d := range Dimensions() {
		r.Ranges[d] = FullRange(d)
	}
	return r
}

// Matches reports whether the packet satisfies every dimension of the rule.
func (r *Rule) Matches(p Packet) bool {
	for _, d := range Dimensions() {
		if !r.Ranges[d].Contains(p.Field(d)) {
			return false
		}
	}
	return true
}

// Coverage returns the fraction of dimension d's space covered by the rule,
// in [0, 1]. EffiCuts calls a field "large" when this exceeds a threshold
// (0.5 in the original paper).
func (r Rule) Coverage(d Dimension) float64 {
	return r.Ranges[d].FractionOf(d)
}

// Validate checks the rule for basic well-formedness: every range must
// satisfy Lo <= Hi and fit inside its dimension. The public SDK and the
// binary wire protocol both gate on this one definition.
func (r Rule) Validate() error {
	for _, d := range Dimensions() {
		rg := r.Ranges[d]
		if rg.Lo > rg.Hi {
			return fmt.Errorf("empty range in %s: %s", d, rg)
		}
		if rg.Hi > d.MaxValue() {
			return fmt.Errorf("range %s exceeds %s max %d", rg, d, d.MaxValue())
		}
	}
	return nil
}

// String renders the rule in a compact human-readable form.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule{prio=%d", r.Priority)
	for _, d := range Dimensions() {
		fmt.Fprintf(&b, " %s=%s", d, r.Ranges[d])
	}
	b.WriteString("}")
	return b.String()
}

// FormatIPv4 renders a 32-bit address in dotted-quad notation.
func FormatIPv4(addr uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr))
}

// ParseIPv4 parses a dotted-quad IPv4 address into its 32-bit value.
func ParseIPv4(s string) (uint32, error) {
	var a, b, c, d uint
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return 0, fmt.Errorf("rule: invalid IPv4 address %q: %w", s, err)
	}
	if a > 255 || b > 255 || c > 255 || d > 255 {
		return 0, fmt.Errorf("rule: invalid IPv4 address %q: octet out of range", s)
	}
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d), nil
}
