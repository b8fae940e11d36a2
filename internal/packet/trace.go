package packet

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"neurocuts/internal/rule"
)

// This file implements reading and writing header traces in the ClassBench
// trace_generator text format: one packet per line, five whitespace-separated
// decimal fields (src IP, dst IP, src port, dst port, protocol), optionally
// followed by the index of the rule the trace generator intended the packet
// to match (which we preserve when present so tests can check classification
// results against ground truth).

// TraceEntry is one packet of a header trace plus its optional ground-truth
// matching rule (or -1 when unknown).
type TraceEntry struct {
	Key       rule.Packet
	MatchRule int
}

// WriteTrace writes entries to w in ClassBench trace format.
func WriteTrace(w io.Writer, entries []TraceEntry) error {
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\t%d\n",
			e.Key.SrcIP, e.Key.DstIP, e.Key.SrcPort, e.Key.DstPort, e.Key.Proto, e.MatchRule); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a ClassBench-format header trace from r. Lines may have
// five fields (no ground truth) or six.
func ReadTrace(r io.Reader) ([]TraceEntry, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []TraceEntry
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 && len(fields) != 6 {
			return nil, fmt.Errorf("packet: trace line %d: expected 5 or 6 fields, got %d", lineNo, len(fields))
		}
		var vals [6]uint64
		vals[5] = 0
		for i, f := range fields {
			var v uint64
			if _, err := fmt.Sscanf(f, "%d", &v); err != nil {
				return nil, fmt.Errorf("packet: trace line %d field %d: %w", lineNo, i, err)
			}
			vals[i] = v
		}
		e := TraceEntry{
			Key: rule.Packet{
				SrcIP:   uint32(vals[0]),
				DstIP:   uint32(vals[1]),
				SrcPort: uint16(vals[2]),
				DstPort: uint16(vals[3]),
				Proto:   uint8(vals[4]),
			},
			MatchRule: -1,
		}
		if len(fields) == 6 {
			e.MatchRule = int(vals[5])
		}
		out = append(out, e)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("packet: reading trace: %w", err)
	}
	return out, nil
}
