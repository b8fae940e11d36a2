package rule

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Set is an ordered packet classifier: a slice of rules where earlier rules
// have higher priority. The zero value is an empty classifier.
type Set struct {
	rules []Rule
}

// NewSet builds a classifier from the given rules in priority order. Each
// rule's Priority and ID fields are rewritten to its list index so that
// lookups over differently-built data structures agree on the winner.
func NewSet(rules []Rule) *Set {
	s := &Set{rules: make([]Rule, len(rules))}
	copy(s.rules, rules)
	for i := range s.rules {
		s.rules[i].Priority = i
		s.rules[i].ID = i
	}
	return s
}

// NewSetKeepPriorities builds a classifier from rules that already carry
// meaningful Priority values, sorting them so that lower Priority comes
// first. IDs are preserved.
func NewSetKeepPriorities(rules []Rule) *Set {
	s := &Set{rules: make([]Rule, len(rules))}
	copy(s.rules, rules)
	sort.SliceStable(s.rules, func(i, j int) bool {
		return s.rules[i].Priority < s.rules[j].Priority
	})
	return s
}

// NewSetCanonical wraps rules, already in canonical form (rule i has
// Priority i), as a classifier without copying or renumbering them. The
// caller hands the slice over and must not modify it afterwards.
func NewSetCanonical(rules []Rule) *Set { return &Set{rules: rules} }

// Len returns the number of rules in the classifier.
func (s *Set) Len() int { return len(s.rules) }

// Rules returns the classifier's rules in priority order. The returned slice
// must not be modified.
func (s *Set) Rules() []Rule { return s.rules }

// Rule returns the i-th rule (0 = highest priority).
func (s *Set) Rule(i int) Rule { return s.rules[i] }

// Clone returns a deep copy of the classifier.
func (s *Set) Clone() *Set {
	c := &Set{rules: make([]Rule, len(s.rules))}
	copy(c.rules, s.rules)
	return c
}

// Match performs reference linear-search classification: it returns the
// highest-priority rule matching p and true, or the zero Rule and false when
// no rule matches. Decision-tree classifiers are validated against this.
func (s *Set) Match(p Packet) (Rule, bool) {
	for _, r := range s.rules {
		if r.Matches(p) {
			return r, true
		}
	}
	return Rule{}, false
}

// MatchIndex is like Match but returns the rule's index, or -1.
func (s *Set) MatchIndex(p Packet) int {
	for i, r := range s.rules {
		if r.Matches(p) {
			return i
		}
	}
	return -1
}

// HasDefaultRule reports whether the lowest-priority rule matches every
// packet, guaranteeing that Match always succeeds.
func (s *Set) HasDefaultRule() bool {
	if len(s.rules) == 0 {
		return false
	}
	last := s.rules[len(s.rules)-1]
	for _, d := range Dimensions() {
		if !last.IsWildcard(d) {
			return false
		}
	}
	return true
}

// Append adds a rule at the end (lowest priority) of the classifier.
func (s *Set) Append(r Rule) {
	r.Priority = len(s.rules)
	if r.ID == 0 {
		r.ID = r.Priority
	}
	s.rules = append(s.rules, r)
}

// Insert places a rule at the given priority position, shifting later rules
// down. Priorities are renumbered to stay equal to list indices.
func (s *Set) Insert(pos int, r Rule) {
	if pos < 0 {
		pos = 0
	}
	if pos > len(s.rules) {
		pos = len(s.rules)
	}
	s.rules = append(s.rules, Rule{})
	copy(s.rules[pos+1:], s.rules[pos:])
	s.rules[pos] = r
	for i := range s.rules {
		s.rules[i].Priority = i
	}
}

// CloneInsert returns a copy of the classifier with r placed at priority
// position pos, leaving the receiver untouched: Clone followed by Insert,
// with every rule copied once into a slice allocated at its final size (at
// 10k rules a fifth of the time and half the garbage of the two calls).
func (s *Set) CloneInsert(pos int, r Rule) *Set {
	pos = max(0, min(pos, len(s.rules)))
	c := &Set{rules: make([]Rule, len(s.rules)+1)}
	copy(c.rules, s.rules[:pos])
	c.rules[pos] = r
	copy(c.rules[pos+1:], s.rules[pos:])
	for i := range c.rules {
		c.rules[i].Priority = i
	}
	return c
}

// CloneRemove returns a copy of the classifier without the rule at index i,
// leaving the receiver untouched: Clone followed by Remove, copying once.
func (s *Set) CloneRemove(i int) *Set {
	if i < 0 || i >= len(s.rules) {
		return s.Clone() // Remove ignores an index out of range
	}
	c := &Set{rules: make([]Rule, len(s.rules)-1)}
	copy(c.rules, s.rules[:i])
	copy(c.rules[i:], s.rules[i+1:])
	for j := range c.rules {
		c.rules[j].Priority = j
	}
	return c
}

// Remove deletes the rule at index i and renumbers priorities.
func (s *Set) Remove(i int) {
	if i < 0 || i >= len(s.rules) {
		return
	}
	s.rules = append(s.rules[:i], s.rules[i+1:]...)
	for j := range s.rules {
		s.rules[j].Priority = j
	}
}

// Stats summarises the structural characteristics of a classifier that the
// hand-tuned heuristics key on.
type Stats struct {
	// NumRules is the classifier size.
	NumRules int
	// DistinctRanges[d] counts distinct (Lo,Hi) pairs in dimension d.
	DistinctRanges [NumDims]int
	// WildcardFraction[d] is the fraction of rules leaving d unconstrained.
	WildcardFraction [NumDims]float64
	// LargeFraction[d] is the fraction of rules whose coverage of d exceeds
	// 0.5 (the EffiCuts "largeness" threshold).
	LargeFraction [NumDims]float64
	// AvgWildcards is the mean number of wildcard dimensions per rule.
	AvgWildcards float64
}

// ComputeStats scans the classifier once and returns its Stats.
func (s *Set) ComputeStats() Stats {
	var st Stats
	st.NumRules = len(s.rules)
	if st.NumRules == 0 {
		return st
	}
	totalWild := 0
	for _, d := range Dimensions() {
		seen := make(map[Range]struct{})
		wild := 0
		large := 0
		for _, r := range s.rules {
			seen[r.Ranges[d]] = struct{}{}
			if r.IsWildcard(d) {
				wild++
			}
			if r.Coverage(d) > 0.5 {
				large++
			}
		}
		st.DistinctRanges[d] = len(seen)
		st.WildcardFraction[d] = float64(wild) / float64(st.NumRules)
		st.LargeFraction[d] = float64(large) / float64(st.NumRules)
		totalWild += wild
	}
	st.AvgWildcards = float64(totalWild) / float64(st.NumRules)
	return st
}

// DistinctRangeCount returns the number of distinct ranges the rules at
// positions members of rules project onto dimension d. This is the
// statistic HiCuts and HyperCuts use to pick cut dimensions.
//
// It sorts the ranges packed as Lo<<32|Hi, one key per range while both
// ends fit in 32 bits, as every dimension's values do; a range beyond that
// makes it sort the ranges themselves.
func DistinctRangeCount(rules []Rule, members []int32, d Dimension) int {
	buf := keyPool.Get().(*[]uint64)
	defer keyPool.Put(buf)
	if cap(*buf) < len(members) {
		*buf = make([]uint64, len(members))
	}
	keys := (*buf)[:len(members)]
	var wide uint64
	for j, i := range members {
		r := rules[i].Ranges[d]
		keys[j] = r.Lo<<32 | r.Hi
		wide |= r.Lo | r.Hi
	}
	if wide <= math.MaxUint32 {
		slices.Sort(keys)
		return distinctSorted(keys)
	}
	ranges := make([]Range, len(members))
	for j, i := range members {
		ranges[j] = rules[i].Ranges[d]
	}
	slices.SortFunc(ranges, func(a, b Range) int {
		return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi))
	})
	return distinctSorted(ranges)
}

// keyPool holds DistinctRangeCount's key buffers: a HiCuts build counts
// every dimension of every node it cuts.
var keyPool = sync.Pool{New: func() any { return new([]uint64) }}

// distinctSorted counts the distinct values of a sorted slice.
func distinctSorted[T comparable](s []T) int {
	n := 0
	for i := range s {
		if i == 0 || s[i] != s[i-1] {
			n++
		}
	}
	return n
}

// DistinctValueCount returns the number of distinct range endpoints the
// rules at positions members of rules project onto dimension d, clipped to
// the box range. Used by equal-dense cutting heuristics.
func DistinctValueCount(rules []Rule, members []int32, d Dimension, box Range) int {
	seen := make(map[uint64]struct{}, 2*len(members))
	for _, i := range members {
		if rr, ok := rules[i].Ranges[d].Intersect(box); ok {
			seen[rr.Lo] = struct{}{}
			seen[rr.Hi] = struct{}{}
		}
	}
	return len(seen)
}

// Validate checks basic well-formedness of the classifier: every rule must
// pass Rule.Validate. It returns the first problem found, or nil.
func (s *Set) Validate() error {
	for i, r := range s.rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}
