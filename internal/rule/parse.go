package rule

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements reading and writing classifiers in the ClassBench
// filter-set text format, which is the de-facto interchange format for packet
// classification benchmarks. Each line looks like:
//
//	@10.0.0.0/8  192.168.0.0/16  0 : 65535  1024 : 2048  0x06/0xFF  0x0000/0x0000
//
// i.e. source prefix, destination prefix, source port range, destination port
// range, protocol/mask, and an optional flags field that we accept and
// ignore. Lines are in priority order (first line = highest priority).

// ParseClassBench reads a classifier in ClassBench filter format from r.
func ParseClassBench(r io.Reader) (*Set, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var rules []Rule
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rl, err := ParseClassBenchLine(line)
		if err != nil {
			return nil, fmt.Errorf("rule: line %d: %w", lineNo, err)
		}
		rules = append(rules, rl)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("rule: reading classifier: %w", err)
	}
	return NewSet(rules), nil
}

// ParseClassBenchLine parses a single ClassBench filter line into a Rule.
// Priority and ID are left at zero; NewSet assigns them from list order.
func ParseClassBenchLine(line string) (Rule, error) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "@") {
		return Rule{}, fmt.Errorf("missing leading '@' in %q", line)
	}
	fields := strings.Fields(line[1:])
	// Expected: srcPrefix dstPrefix sLo : sHi dLo : dHi proto/mask [flags/mask]
	if len(fields) < 9 {
		return Rule{}, fmt.Errorf("expected at least 9 fields, got %d in %q", len(fields), line)
	}
	var r Rule
	src, err := parsePrefixField(fields[0], 32)
	if err != nil {
		return Rule{}, fmt.Errorf("source prefix: %w", err)
	}
	dst, err := parsePrefixField(fields[1], 32)
	if err != nil {
		return Rule{}, fmt.Errorf("destination prefix: %w", err)
	}
	sport, err := parsePortRange(fields[2], fields[3], fields[4])
	if err != nil {
		return Rule{}, fmt.Errorf("source port: %w", err)
	}
	dport, err := parsePortRange(fields[5], fields[6], fields[7])
	if err != nil {
		return Rule{}, fmt.Errorf("destination port: %w", err)
	}
	proto, err := parseProtoField(fields[8])
	if err != nil {
		return Rule{}, fmt.Errorf("protocol: %w", err)
	}
	r.Ranges[DimSrcIP] = src
	r.Ranges[DimDstIP] = dst
	r.Ranges[DimSrcPort] = sport
	r.Ranges[DimDstPort] = dport
	r.Ranges[DimProto] = proto
	return r, nil
}

func parsePrefixField(s string, bits uint) (Range, error) {
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		return Range{}, fmt.Errorf("expected addr/len, got %q", s)
	}
	addr, err := ParseIPv4(parts[0])
	if err != nil {
		return Range{}, err
	}
	plen, err := strconv.ParseUint(parts[1], 10, 8)
	if err != nil {
		return Range{}, fmt.Errorf("prefix length %q: %w", parts[1], err)
	}
	if uint(plen) > bits {
		return Range{}, fmt.Errorf("prefix length %d exceeds %d", plen, bits)
	}
	return PrefixRange(uint64(addr), uint(plen), bits), nil
}

func parsePortRange(loStr, colon, hiStr string) (Range, error) {
	if colon != ":" {
		return Range{}, fmt.Errorf("expected ':' separator, got %q", colon)
	}
	lo, err := strconv.ParseUint(loStr, 10, 17)
	if err != nil {
		return Range{}, fmt.Errorf("low port %q: %w", loStr, err)
	}
	hi, err := strconv.ParseUint(hiStr, 10, 17)
	if err != nil {
		return Range{}, fmt.Errorf("high port %q: %w", hiStr, err)
	}
	if lo > hi {
		return Range{}, fmt.Errorf("inverted port range %d : %d", lo, hi)
	}
	if hi > DimSrcPort.MaxValue() {
		return Range{}, fmt.Errorf("port %d out of range", hi)
	}
	return Range{Lo: lo, Hi: hi}, nil
}

func parseProtoField(s string) (Range, error) {
	parts := strings.SplitN(s, "/", 2)
	val, err := parseHexOrDec(parts[0])
	if err != nil {
		return Range{}, fmt.Errorf("protocol value %q: %w", parts[0], err)
	}
	mask := uint64(0xFF)
	if len(parts) == 2 {
		mask, err = parseHexOrDec(parts[1])
		if err != nil {
			return Range{}, fmt.Errorf("protocol mask %q: %w", parts[1], err)
		}
	}
	if mask == 0 {
		return FullRange(DimProto), nil
	}
	if mask != 0xFF {
		return Range{}, fmt.Errorf("unsupported protocol mask %#x (only 0x00 and 0xFF)", mask)
	}
	if val > DimProto.MaxValue() {
		return Range{}, fmt.Errorf("protocol %d out of range", val)
	}
	return Range{Lo: val, Hi: val}, nil
}

func parseHexOrDec(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

// WriteClassBench writes the classifier to w in ClassBench filter format.
// Ranges that are not expressible as prefixes (possible for IP dimensions of
// synthetic rules) are widened to the smallest covering prefix; port ranges
// and protocol are written exactly.
func WriteClassBench(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	for _, r := range s.Rules() {
		if err := writeClassBenchLine(bw, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FormatClassBenchLine renders a single rule as a ClassBench filter line
// (without trailing newline).
func FormatClassBenchLine(r Rule) string {
	var b strings.Builder
	// Ignore the error: strings.Builder never fails.
	_ = writeClassBenchLineTo(&b, r, "")
	return b.String()
}

func writeClassBenchLine(w io.Writer, r Rule) error {
	return writeClassBenchLineTo(w, r, "\n")
}

func writeClassBenchLineTo(w io.Writer, r Rule, suffix string) error {
	srcAddr, srcLen := coveringPrefix(r.Ranges[DimSrcIP], 32)
	dstAddr, dstLen := coveringPrefix(r.Ranges[DimDstIP], 32)
	proto := r.Ranges[DimProto]
	protoStr := "0x00/0x00"
	if !proto.IsFull(DimProto) {
		protoStr = fmt.Sprintf("0x%02X/0xFF", proto.Lo)
	}
	_, err := fmt.Fprintf(w, "@%s/%d\t%s/%d\t%d : %d\t%d : %d\t%s\t0x0000/0x0000%s",
		FormatIPv4(uint32(srcAddr)), srcLen,
		FormatIPv4(uint32(dstAddr)), dstLen,
		r.Ranges[DimSrcPort].Lo, r.Ranges[DimSrcPort].Hi,
		r.Ranges[DimDstPort].Lo, r.Ranges[DimDstPort].Hi,
		protoStr, suffix)
	return err
}

// coveringPrefix returns the address and length of the smallest prefix that
// covers the range. Exact when the range already is a prefix.
func coveringPrefix(r Range, bits uint) (uint64, uint) {
	if plen, ok := r.PrefixLen(bits); ok {
		return r.Lo, plen
	}
	// Find the longest prefix of Lo that still covers Hi.
	for plen := bits; ; plen-- {
		p := PrefixRange(r.Lo, plen, bits)
		if p.Covers(r) {
			return p.Lo, plen
		}
		if plen == 0 {
			return 0, 0
		}
	}
}

// ParsePacket parses a packet key written as "src dst sport dport proto"
// (the form the CLIs take on -packet). IP fields accept dotted-quad or
// decimal notation.
func ParsePacket(line string) (Packet, error) {
	fields := strings.Fields(line)
	if len(fields) != 5 {
		return Packet{}, fmt.Errorf("expected 5 fields, got %d", len(fields))
	}
	src, err := parseIPField(fields[0])
	if err != nil {
		return Packet{}, fmt.Errorf("src ip: %v", err)
	}
	dst, err := parseIPField(fields[1])
	if err != nil {
		return Packet{}, fmt.Errorf("dst ip: %v", err)
	}
	sp, err := strconv.ParseUint(fields[2], 10, 16)
	if err != nil {
		return Packet{}, fmt.Errorf("src port: %v", err)
	}
	dp, err := strconv.ParseUint(fields[3], 10, 16)
	if err != nil {
		return Packet{}, fmt.Errorf("dst port: %v", err)
	}
	proto, err := strconv.ParseUint(fields[4], 10, 8)
	if err != nil {
		return Packet{}, fmt.Errorf("proto: %v", err)
	}
	return Packet{
		SrcIP: src, DstIP: dst,
		SrcPort: uint16(sp), DstPort: uint16(dp), Proto: uint8(proto),
	}, nil
}

func parseIPField(s string) (uint32, error) {
	if strings.Contains(s, ".") {
		return ParseIPv4(s)
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, err
	}
	return uint32(v), nil
}
