package classbench

import (
	"math"
	"math/rand"

	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// GenerateTrace builds a header trace of n packets for the given classifier,
// following the ClassBench trace_generator approach: each packet is sampled
// from inside the hyper-rectangle of a randomly chosen rule (so that the
// trace actually exercises the classifier rather than hitting only the
// default rule), and a Pareto-distributed repeat count introduces the
// temporal locality real traffic exhibits. The MatchRule field of each entry
// records the ground-truth winner found by linear search.
func GenerateTrace(s *rule.Set, n int, seed int64) []packet.TraceEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]packet.TraceEntry, 0, n)
	rules := s.Rules()
	if len(rules) == 0 || n <= 0 {
		return out
	}
	for len(out) < n {
		r := rules[rng.Intn(len(rules))]
		key := samplePacket(rng, r)
		match := s.MatchIndex(key)
		// Pareto(1, 1.5)-ish burst length, clamped.
		burst := int(math.Ceil(math.Pow(1-rng.Float64(), -1/1.5))) // >= 1
		if burst > 16 {
			burst = 16
		}
		for b := 0; b < burst && len(out) < n; b++ {
			out = append(out, packet.TraceEntry{Key: key, MatchRule: match})
		}
	}
	return out
}

// samplePacket draws a packet uniformly from inside the rule's box.
func samplePacket(rng *rand.Rand, r rule.Rule) rule.Packet {
	pick := func(d rule.Dimension) uint64 {
		rg := r.Ranges[d]
		span := rg.Size()
		if span == 0 {
			return rg.Lo
		}
		return rg.Lo + (rng.Uint64() % span)
	}
	return rule.Packet{
		SrcIP:   uint32(pick(rule.DimSrcIP)),
		DstIP:   uint32(pick(rule.DimDstIP)),
		SrcPort: uint16(pick(rule.DimSrcPort)),
		DstPort: uint16(pick(rule.DimDstPort)),
		Proto:   uint8(pick(rule.DimProto)),
	}
}

// ZipfTrace builds a skewed header trace: a fixed population of `flows`
// distinct packets is sampled from inside the classifier's rules (as in
// GenerateTrace), and the n trace entries draw from that population with
// Zipf-distributed popularity — rank-1 flows dominate, the tail is cold.
// This models the flow-size skew of real traffic (a small fraction of flows
// carries most packets) and is the workload a flow cache exploits.
//
// skew is the Zipf s parameter and must exceed 1 for the distribution to be
// defined; values in [1.1, 1.5] are typical. Non-positive or sub-1 values
// select 1.2. flows is clamped to [1, n]. Generation is deterministic in
// seed.
func ZipfTrace(s *rule.Set, n, flows int, skew float64, seed int64) []packet.TraceEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]packet.TraceEntry, 0, n)
	rules := s.Rules()
	if len(rules) == 0 || n <= 0 {
		return out
	}
	if flows < 1 {
		flows = 1
	}
	if flows > n {
		flows = n
	}
	if skew <= 1 {
		skew = 1.2
	}
	// Fixed flow population with ground-truth matches computed once.
	population := make([]packet.TraceEntry, flows)
	for i := range population {
		r := rules[rng.Intn(len(rules))]
		key := samplePacket(rng, r)
		population[i] = packet.TraceEntry{Key: key, MatchRule: s.MatchIndex(key)}
	}
	z := rand.NewZipf(rng, skew, 1, uint64(flows-1))
	for len(out) < n {
		out = append(out, population[z.Uint64()])
	}
	return out
}

// UniformTrace builds a trace of packets drawn uniformly from the whole
// header space, useful as an adversarial workload where most packets match
// only the default rule.
func UniformTrace(s *rule.Set, n int, seed int64) []packet.TraceEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]packet.TraceEntry, n)
	for i := range out {
		key := rule.Packet{
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(rng.Intn(65536)),
			DstPort: uint16(rng.Intn(65536)),
			Proto:   uint8(rng.Intn(256)),
		}
		out[i] = packet.TraceEntry{Key: key, MatchRule: s.MatchIndex(key)}
	}
	return out
}
