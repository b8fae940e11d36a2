package rule

import (
	"cmp"
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
