// Package tss implements Tuple Space Search (Srinivasan, Suri & Varghese,
// SIGCOMM 1999), the hash-based classification scheme the paper's related
// work section contrasts with decision trees (it is also the algorithm used
// by Open vSwitch's megaflow cache). It is included as an additional
// baseline for the repository's ablation benchmarks.
//
// TSS groups rules into "tuples": a tuple is the vector of mask lengths a
// rule uses in each dimension. All rules of a tuple can be stored in one
// exact-match hash table keyed by the masked header fields. Classification
// probes every tuple's table and keeps the highest-priority match, so the
// classification time grows with the number of distinct tuples, while
// updates are O(1) — the opposite trade-off from decision trees.
//
// Arbitrary port ranges do not fit the mask model directly; as in the
// original paper they are expanded into the minimal set of covering
// prefixes, each inserted separately (this is the well-known memory cost of
// TSS on range-heavy classifiers).
package tss

import (
	"fmt"

	"neurocuts/internal/rule"
)

// tupleKey identifies a tuple: the prefix length used per dimension.
type tupleKey [rule.NumDims]uint8

// entryKey is the masked field vector used as the exact-match key inside a
// tuple's table.
type entryKey [rule.NumDims]uint64

// entry is one stored (masked) rule.
type entry struct {
	priority int
	r        rule.Rule
}

// tuple is one hash table of rules sharing a mask vector.
type tuple struct {
	key   tupleKey
	masks [rule.NumDims]uint64
	table map[entryKey][]entry
}

// Classifier is a Tuple Space Search classifier.
type Classifier struct {
	tuples []*tuple
	// byKey indexes tuples for O(1) insertion.
	byKey map[tupleKey]*tuple
	// ruleCount is the number of classifier rules inserted (not expanded
	// entries).
	ruleCount int
	// entryCount is the number of stored entries after range expansion.
	entryCount int
}

// NewClassifier returns an empty TSS classifier ready for incremental
// Insert. Lookups probe every tuple, and port ranges expand into many: 256
// ClassBench rules make ~400 tuples, one 40-byte key hash each per packet,
// which is why the update overlay (internal/updater) scans its rules instead.
func NewClassifier() *Classifier {
	return &Classifier{byKey: map[tupleKey]*tuple{}}
}

// Build constructs a TSS classifier from a rule set.
func Build(s *rule.Set) (*Classifier, error) {
	c := NewClassifier()
	for _, r := range s.Rules() {
		if err := c.Insert(r); err != nil {
			return nil, fmt.Errorf("tss: inserting rule %d: %w", r.Priority, err)
		}
	}
	return c, nil
}

// Insert adds one rule, expanding non-prefix ranges into covering prefixes.
func (c *Classifier) Insert(r rule.Rule) error {
	expansions, err := expandRule(r)
	if err != nil {
		return err
	}
	for _, ex := range expansions {
		tp := c.tupleFor(ex.lens)
		key := maskFields(ex.values, tp.masks)
		tp.table[key] = append(tp.table[key], entry{priority: r.Priority, r: r})
		c.entryCount++
	}
	c.ruleCount++
	return nil
}

// Classify returns the highest-priority rule matching the packet.
func (c *Classifier) Classify(p rule.Packet) (rule.Rule, bool) {
	fields := [rule.NumDims]uint64{}
	for _, d := range rule.Dimensions() {
		fields[d] = p.Field(d)
	}
	var best rule.Rule
	found := false
	for _, tp := range c.tuples {
		key := maskFields(fields, tp.masks)
		for _, e := range tp.table[key] {
			// The masked-key match covers the prefix dimensions exactly, but
			// the original rule may constrain expanded dimensions more
			// tightly (the covering prefixes may overshoot), so confirm with
			// the full match.
			if !e.r.Matches(p) {
				continue
			}
			if !found || e.priority < best.Priority {
				best = e.r
				found = true
			}
		}
	}
	return best, found
}

// Metrics describes the TSS classifier's cost profile.
type Metrics struct {
	// Tuples is the number of hash tables probed per lookup.
	Tuples int
	// Entries is the number of stored (expanded) entries.
	Entries int
	// ExpansionFactor is Entries divided by the number of rules.
	ExpansionFactor float64
	// MemoryBytes models each entry at one pointer plus the masked key, and
	// each tuple at a fixed table header.
	MemoryBytes int
	// BytesPerRule is MemoryBytes per classifier rule.
	BytesPerRule float64
}

// Cost model constants (documented so results are comparable run to run).
const (
	tupleHeaderBytes = 64
	entryBytes       = 8 + 5*4
)

// Metrics computes the classifier's metrics.
func (c *Classifier) Metrics() Metrics {
	m := Metrics{Tuples: len(c.tuples), Entries: c.entryCount}
	if c.ruleCount > 0 {
		m.ExpansionFactor = float64(c.entryCount) / float64(c.ruleCount)
	}
	m.MemoryBytes = tupleHeaderBytes*len(c.tuples) + entryBytes*c.entryCount
	if c.ruleCount > 0 {
		m.BytesPerRule = float64(m.MemoryBytes) / float64(c.ruleCount)
	}
	return m
}

// tupleFor returns (creating if needed) the tuple for a mask-length vector.
func (c *Classifier) tupleFor(lens tupleKey) *tuple {
	if tp, ok := c.byKey[lens]; ok {
		return tp
	}
	tp := &tuple{key: lens, table: map[entryKey][]entry{}}
	for _, d := range rule.Dimensions() {
		tp.masks[d] = prefixMask(uint(lens[d]), d.Bits())
	}
	c.tuples = append(c.tuples, tp)
	c.byKey[lens] = tp
	return tp
}

func prefixMask(prefixLen, bits uint) uint64 {
	if prefixLen == 0 {
		return 0
	}
	if prefixLen > bits {
		prefixLen = bits
	}
	full := (uint64(1) << bits) - 1
	return full &^ ((uint64(1) << (bits - prefixLen)) - 1)
}

func maskFields(values [rule.NumDims]uint64, masks [rule.NumDims]uint64) entryKey {
	var out entryKey
	for i := range values {
		out[i] = values[i] & masks[i]
	}
	return out
}

// expansion is one prefix-vector realisation of a rule.
type expansion struct {
	lens   tupleKey
	values [rule.NumDims]uint64
}

// expandRule converts a rule's per-dimension ranges into prefix vectors,
// taking the cross product of the per-dimension prefix decompositions.
func expandRule(r rule.Rule) ([]expansion, error) {
	perDim := make([][]struct {
		len uint
		val uint64
	}, rule.NumDims)
	total := 1
	for _, d := range rule.Dimensions() {
		prefixes := rangeToPrefixes(r.Ranges[d], d.Bits())
		if len(prefixes) == 0 {
			return nil, fmt.Errorf("empty range in %s", d)
		}
		perDim[d] = prefixes
		total *= len(prefixes)
		if total > 4096 {
			return nil, fmt.Errorf("rule expands into more than 4096 prefix combinations")
		}
	}
	out := make([]expansion, 0, total)
	idx := make([]int, rule.NumDims)
	for {
		var ex expansion
		for _, d := range rule.Dimensions() {
			p := perDim[d][idx[d]]
			ex.lens[d] = uint8(p.len)
			ex.values[d] = p.val
		}
		out = append(out, ex)
		i := rule.NumDims - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(perDim[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out, nil
}

// rangeToPrefixes decomposes an inclusive range into the minimal set of
// covering prefixes (the classic range-to-prefix conversion).
func rangeToPrefixes(r rule.Range, bits uint) []struct {
	len uint
	val uint64
} {
	var out []struct {
		len uint
		val uint64
	}
	lo, hi := r.Lo, r.Hi
	maxVal := (uint64(1) << bits) - 1
	if hi > maxVal {
		hi = maxVal
	}
	for lo <= hi {
		// Largest prefix starting at lo that stays within [lo, hi].
		size := uint64(1)
		plen := bits
		for plen > 0 {
			next := size << 1
			if lo%next != 0 || lo+next-1 > hi {
				break
			}
			size = next
			plen--
		}
		out = append(out, struct {
			len uint
			val uint64
		}{len: plen, val: lo})
		if lo+size-1 == maxVal {
			break
		}
		lo += size
	}
	return out
}
