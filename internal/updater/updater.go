// Package updater makes rule updates cheap: instead of rebuilding a
// classifier on every Insert/Delete (the engine's original write path —
// O(full build + compile) per rule), updates land in a small delta overlay
// on top of an immutable base classifier.
//
// The split is the classic base+delta design used around build-once tree
// structures:
//
//   - Inserts go into the overlay: one slice of packed match-only records
//     (rule.Packed, what internal/compiled scans in its leaves) in
//     merged-list order.
//   - Deletes of base rules become tombstones (a bitset over base rule
//     indices); deletes of overlay rules simply leave the overlay.
//   - A merged lookup asks the base first and checks its winner against the
//     tombstone set (only a deleted winner costs a rescan of the base list;
//     see LookupFunc for why that cannot be pushed into the base structure),
//     then scans the overlay in order, stopping at the first match or at the
//     first overlay rule that sorts behind the base winner. No allocations.
//
// Rank scheme: a rule's rank is the number of live (non-tombstoned) base
// rules ahead of it in the merged list. Live base rules therefore have ranks
// 0, 1, 2, ...; an overlay rule shares the rank of the base rule it sits
// directly in front of and beats it on the tie. Overlay records are stored in
// merged order, so their ranks ascend, and merged index = rank + number of
// overlay rules at or ahead of the rule — which is the scan position itself.
// Nothing in the scheme can run out: any rule fits the overlay, and any
// number of them fit between two base rules.
//
// Cost model: a View answers with a position — the winner's index in its
// merged list, or -1 — and the base answers it with one: a lookup moves
// int32s from the base through the tombstone check and the overlay scan, and
// copies no rule. The overlay adds O(overlay rules ranked at or above the base
// winner) packed-record compares per packet, at most the whole overlay, which
// the engine's compaction threshold bounds (256 pending updates by default:
// 10 KB, L1-resident). Tuple Space Search, the structure the overlay used to be,
// loses at this size: ClassBench port ranges expand into prefix tuples, so
// 256 rules spread over ~400 hash tables and every lookup pays one 40-byte
// key hash per table whether or not the table can match. The Rule-shaped
// entry points (NewBase, NewBaseBatch, View.Classify, View.ClassifyBatch) are
// wrappers over the position path for callers that hold rules.
//
// A View is a pure function of (base, merged list) — the same derivation
// serves normal updates, journal replay and post-compaction rebasing — and is
// immutable: the engine publishes each new View through its RCU snapshot
// machinery, so concurrent readers never see a torn update and never block.
// A background compactor (driven by the engine) periodically rebuilds the
// base from the merged list and rebases the overlay, bounding overlay size
// and restoring base lookup speed.
//
// The package also provides the durable update journal (journal.go): a
// length-prefixed, CRC-checked write-ahead log of updates that, replayed
// over a saved artifact, gives crash-consistent warm starts.
package updater

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"neurocuts/internal/rule"
)

// LookupFunc is a base classifier's single-packet lookup in the Rule shape
// NewBase and NewBaseBatch wrap: the wrapper turns the winner into its
// position with its Priority, which must therefore be its index in the base
// rule set. A base lookup in either shape must return the overall best match
// over the full base rule list — including rules the merged view has
// tombstoned (the view checks the winner against its tombstone set itself
// and rescans on a hit). An "optimised" base lookup that skips tombstoned
// rules internally would be unsound: tree builds prune leaf rules shadowed
// by higher-priority rules, so the best surviving match can be absent from
// the structure once its shadower is deleted.
type LookupFunc func(p rule.Packet) (rule.Rule, bool)

// BatchLookupFunc is a base classifier's batched lookup in the Rule shape
// NewBaseBatch wraps: it classifies ps[i] into (rules[i], oks[i]) for every
// i, result-identical to len(ps) LookupFunc calls and under the same
// soundness contract. View.ClassifyBatch hands it the caller's own slices;
// View.LookupBatch, which answers with positions, does not use it.
type BatchLookupFunc func(ps []rule.Packet, rules []rule.Rule, oks []bool)

// Base is one immutable base generation: a built classifier, the rule set
// it was built over, and the ID->index mapping Views need. It is shared by
// every View derived between two compactions.
type Base struct {
	// lookup returns the index in set of p's best match, or -1, under
	// LookupFunc's soundness contract.
	lookup func(p rule.Packet) int
	// batch writes lookup(ps[i]) to pos[i] in one call (nil: View.LookupBatch
	// runs lookup per packet).
	batch func(ps []rule.Packet, pos []int32)
	// ruleBatch is NewBaseBatch's Rule-shaped batch, nil for other bases.
	ruleBatch BatchLookupFunc
	set       *rule.Set
	// packed is set's rules in the match kernel's form, index-aligned: what
	// the tombstoned-winner rescan walks instead of the 96-byte rules.
	packed    []rule.Packed
	indexByID map[int]int
}

// NewBase wraps a built classifier's Rule-shaped lookup as an overlay base.
// The set must be in canonical form (rule i has Priority i), which every
// engine-built and artifact-loaded set satisfies.
func NewBase(set *rule.Set, lookup LookupFunc) (*Base, error) {
	return NewBaseBatch(set, lookup, nil)
}

// NewBaseBatch is NewBase with an additional Rule-shaped batched lookup,
// which View.ClassifyBatch runs over whole spans into the caller's slices.
// batch may be nil, in which case batches degrade to scalar lookups.
func NewBaseBatch(set *rule.Set, lookup LookupFunc, batch BatchLookupFunc) (*Base, error) {
	if lookup == nil {
		return nil, errors.New("updater: base lookup is nil")
	}
	b, err := NewBasePacked(set, func(p rule.Packet) int {
		if r, ok := lookup(p); ok {
			return r.Priority
		}
		return -1
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	b.ruleBatch = batch
	return b, nil
}

// NewBasePacked wraps a built classifier's position lookups as an overlay
// base: lookup returns the index in set of p's best match, or -1, and batch
// (nil: per-packet lookups) writes those indices for a whole span. packed is
// the projection of set's rules in rule.PackRules order, which a caller that
// already holds one (a compiled classifier does) shares instead of packing a
// second copy; nil makes the base pack its own.
func NewBasePacked(set *rule.Set, lookup func(p rule.Packet) int, batch func(ps []rule.Packet, pos []int32), packed []rule.Packed) (*Base, error) {
	if lookup == nil {
		return nil, errors.New("updater: base lookup is nil")
	}
	if set.Len() >= math.MaxInt32 {
		return nil, fmt.Errorf("updater: base of %d rules exceeds the 32-bit rank space", set.Len())
	}
	idx := make(map[int]int, set.Len())
	for i, r := range set.Rules() {
		if r.Priority != i {
			return nil, fmt.Errorf("updater: base set not canonical: rule %d has priority %d", i, r.Priority)
		}
		if _, dup := idx[r.ID]; dup {
			return nil, fmt.Errorf("updater: base set has duplicate rule id %d", r.ID)
		}
		idx[r.ID] = i
	}
	if packed == nil {
		packed = rule.PackRules(set.Rules())
	} else if len(packed) != set.Len() {
		return nil, fmt.Errorf("updater: %d packed records for a base of %d rules", len(packed), set.Len())
	}
	return &Base{lookup: lookup, batch: batch, set: set, packed: packed, indexByID: idx}, nil
}

// IndexOf returns the index in the base's rule set of the rule with the
// given ID, or -1.
func (b *Base) IndexOf(id int) int {
	if bi, ok := b.indexByID[id]; ok {
		return bi
	}
	return -1
}

// overlayRule is one overlay rule as the lookup scans it: its packed
// match-only projection (the record internal/compiled scans in its leaves,
// tested by the same kernel) and its rank. A rule no packet can satisfy packs
// to a record that matches nothing (see rule.Pack).
type overlayRule struct {
	match rule.Packed
	// rank is the number of live base rules ahead of this rule in the merged
	// list (see the package comment).
	rank int32
}

// tombWord is 64 base rules' worth of tombstone bits plus the number of
// tombstones in all earlier words, so the count of tombstones ahead of any
// base rule is one load and one popcount.
type tombWord struct {
	bits   uint64
	before uint32
}

// View is one immutable merged (base + overlay + tombstones) generation.
// All fields are read-only after NewView; lookups are safe for concurrent
// use and allocation-free.
type View struct {
	base *Base
	// merged is the logical rule list this view serves (priorities are
	// indices, as everywhere else in the repository).
	merged *rule.Set
	// overlay holds the non-base rules in merged order, so ranks ascend and
	// overlay[j] is merged rule overlay[j].rank+j.
	overlay []overlayRule
	// tombs marks the deleted base rule indices.
	tombs  []tombWord
	tombsN int
}

// stackOverlay is how many overlay positions NewView collects without a heap
// allocation: twice the engine's default compaction threshold. Larger
// overlays are still served; their derivation just allocates more.
const stackOverlay = 512

// NewView derives the immutable serving view for a merged rule list over a
// base. merged must be canonical (rule i has Priority i) and must preserve
// the relative order of the base rules it retains. The derivation is one
// pass over merged that walks the base list beside it, so only overlay rules
// and the first survivor after a deleted run need the base's ID index; it
// allocates the view, its overlay and its tombstone words, whatever the
// overlay's size (up to stackOverlay rules).
func NewView(b *Base, merged *rule.Set) (*View, error) {
	baseRules, rules := b.set.Rules(), merged.Rules()
	v := &View{base: b, merged: merged, tombs: make([]tombWord, (len(baseRules)+63)/64)}
	var stack [stackOverlay]int32
	overlayAt := stack[:0] // merged indices of the overlay rules
	next := 0              // base rules before next are anchored or tombstoned
	for i := range rules {
		r := &rules[i]
		if r.Priority != i {
			return nil, fmt.Errorf("updater: merged set not canonical: rule %d has priority %d", i, r.Priority)
		}
		bi := next
		if bi == len(baseRules) || baseRules[bi].ID != r.ID {
			var isBase bool
			if bi, isBase = b.indexByID[r.ID]; !isBase {
				overlayAt = append(overlayAt, int32(i))
				continue
			}
			if bi < next {
				return nil, fmt.Errorf("updater: merged list reorders base rules (id %d)", r.ID)
			}
		}
		v.tombstone(next, bi)
		next = bi + 1
	}
	v.tombstone(next, len(baseRules))
	for w := 1; w < len(v.tombs); w++ {
		v.tombs[w].before = v.tombs[w-1].before + uint32(bits.OnesCount64(v.tombs[w-1].bits))
	}
	v.overlay = make([]overlayRule, len(overlayAt))
	for j, i := range overlayAt {
		v.overlay[j] = overlayRule{match: rule.Pack(&rules[i]), rank: i - int32(j)}
	}
	return v, nil
}

// tombstone marks base rules [lo, hi) deleted.
func (v *View) tombstone(lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		v.tombs[bi>>6].bits |= 1 << (uint(bi) & 63)
	}
	v.tombsN += hi - lo
}

// Merged returns the logical rule list the view serves.
func (v *View) Merged() *rule.Set { return v.merged }

// OverlayLen returns the number of rules held in the delta overlay.
func (v *View) OverlayLen() int { return len(v.overlay) }

// FromOverlay reports whether the rule with the given ID lives in the
// delta overlay rather than the base — i.e. it was inserted after the last
// compaction. The slow-lookup flight recorder uses it to attribute a
// winning rule to the overlay or the compiled base. Allocation-free (one
// map probe against the base's ID index).
func (v *View) FromOverlay(id int) bool {
	_, inBase := v.base.indexByID[id]
	return !inBase
}

// Tombstones returns the number of tombstoned base rules.
func (v *View) Tombstones() int { return v.tombsN }

// tombstoned reports whether base rule index bi is deleted.
func (v *View) tombstoned(bi int) bool {
	return v.tombs[bi>>6].bits&(1<<(uint(bi)&63)) != 0
}

// baseRank is the rank of live base rule bi: the live base rules ahead of it.
func (v *View) baseRank(bi int) int {
	if v.tombsN == 0 {
		return bi
	}
	w := v.tombs[bi>>6]
	return bi - int(w.before) - bits.OnesCount64(w.bits&(1<<(uint(bi)&63)-1))
}

// IndexOf returns the merged-list index of the live rule with the given ID,
// or -1. Base rules resolve through the base's ID index and a binary search
// over the overlay's ranks; only overlay rules are scanned for.
func (v *View) IndexOf(id int) int {
	if bi, inBase := v.base.indexByID[id]; inBase {
		if v.tombstoned(bi) {
			return -1
		}
		rank := v.baseRank(bi)
		return rank + sort.Search(len(v.overlay), func(j int) bool { return int(v.overlay[j].rank) > rank })
	}
	for j := range v.overlay {
		if i := int(v.overlay[j].rank) + j; v.merged.Rule(i).ID == id {
			return i
		}
	}
	return -1
}

// Lookup returns the merged-list position of the highest-priority rule
// matching p, or -1. The path is allocation-free and copies no rule: one base
// lookup (with a tombstone check on its winner) and a scan of the overlay
// rules that could beat it.
func (v *View) Lookup(p rule.Packet) int32 { return v.resolve(p, v.base.lookup(p)) }

// LookupBatch writes Lookup(ps[i]) to pos[i] for every i. The base lookups
// run as one batched call when the base provides one (so a compiled tree
// base serves the span through its frontier walk), in place in pos;
// tombstone resolution and the overlay scan stay scalar per packet — the
// overlay is small by construction, the base is where the memory latency
// lives.
func (v *View) LookupBatch(ps []rule.Packet, pos []int32) {
	if v.base.batch == nil || len(ps) < 2 {
		for i, p := range ps {
			pos[i] = v.Lookup(p)
		}
		return
	}
	v.base.batch(ps, pos)
	for i, p := range ps {
		pos[i] = v.resolve(p, int(pos[i]))
	}
}

// Classify is Lookup plus one copy of the winning rule, or ok=false.
func (v *View) Classify(p rule.Packet) (rule.Rule, bool) { return v.rule(v.Lookup(p)) }

// rule materializes merged-list position i (-1: no match).
func (v *View) rule(i int32) (rule.Rule, bool) {
	if i < 0 {
		return rule.Rule{}, false
	}
	return v.merged.Rule(int(i)), true
}

// ClassifyBatch is the Rule-shaped LookupBatch: ps[i]'s winner lands in
// (rules[i], oks[i]), result-identical to per-packet Classify calls. A
// NewBaseBatch base answers the whole span into the caller's own slices,
// whose base winners are then merged and overwritten in place; any other base
// is served a packet at a time. Either way it allocates nothing: scratch
// handed through the base's function value would escape to the heap.
func (v *View) ClassifyBatch(ps []rule.Packet, rules []rule.Rule, oks []bool) {
	if v.base.ruleBatch == nil || len(ps) < 2 {
		for i, p := range ps {
			rules[i], oks[i] = v.Classify(p)
		}
		return
	}
	v.base.ruleBatch(ps, rules, oks)
	for i, p := range ps {
		bi := -1
		if oks[i] {
			bi = rules[i].Priority
		}
		rules[i], oks[i] = v.rule(v.resolve(p, bi))
	}
}

// resolve merges one packet's base winner bi (its index in the base list, or
// -1) with the tombstone set and the overlay, and returns the merged winner's
// position, or -1. It is the shared back half of every lookup.
func (v *View) resolve(p rule.Packet, bi int) int32 {
	k := p.Key()
	if bi >= 0 && v.tombsN > 0 && v.tombstoned(bi) {
		// The base's best match is deleted: rescan the base list past the
		// tombstones. This cannot be pushed into the base structure itself
		// (see LookupFunc); it is the slow path and only runs when a
		// deleted rule would have won.
		packed := v.base.packed
		for bi++; bi < len(packed); bi++ {
			if packed[bi].Matches(k) && !v.tombstoned(bi) {
				break
			}
		}
		if bi == len(packed) {
			bi = -1
		}
	}
	// rank is the base winner's; without one it sorts behind every rule.
	rank := math.MaxInt32
	if bi >= 0 {
		rank = v.baseRank(bi)
	}
	// Overlay rules whose rank does not exceed the base winner's sit ahead
	// of it in the merged list; the first of them to match wins.
	j := 0
	for ; j < len(v.overlay); j++ {
		o := &v.overlay[j]
		if int(o.rank) > rank {
			break
		}
		if o.match.Matches(k) {
			return o.rank + int32(j)
		}
	}
	if bi < 0 {
		return -1
	}
	// j overlay rules sit ahead of the base winner.
	return int32(rank + j)
}
