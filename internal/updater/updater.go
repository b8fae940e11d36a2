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
// Cost model: the overlay adds O(overlay rules ranked at or above the base
// winner) packed-record compares per packet, at most the whole overlay, which
// the engine's compaction threshold bounds (256 pending updates by default:
// 10 KB, L1-resident). Tuple Space Search, the structure the overlay used to be,
// loses at this size: ClassBench port ranges expand into prefix tuples, so
// 256 rules spread over ~400 hash tables and every lookup pays one 40-byte
// key hash per table whether or not the table can match.
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

// LookupFunc is a base classifier's single-packet lookup. The returned
// rule's Priority must be its index in the base rule set, and the lookup
// must return the overall best match over the full base rule list —
// including rules the merged view has tombstoned (the view checks the
// winner against its tombstone set itself and rescans on a hit). An
// "optimised" base lookup that skips tombstoned rules internally would be
// unsound: tree builds prune leaf rules shadowed by higher-priority rules,
// so the best surviving match can be absent from the structure once its
// shadower is deleted.
type LookupFunc func(p rule.Packet) (rule.Rule, bool)

// BatchLookupFunc is a base classifier's batched lookup: it classifies
// ps[i] into (rules[i], oks[i]) for every i. It must be result-identical to
// len(ps) LookupFunc calls and carries the same soundness contract (full
// base list, tombstoned rules included). Bases built from the engine's
// compiled tree backends route this through the compiled frontier walk
// (compiled.LookupBatch), which is why View.ClassifyBatch exists at all.
type BatchLookupFunc func(ps []rule.Packet, rules []rule.Rule, oks []bool)

// Base is one immutable base generation: a built classifier, the rule set
// it was built over, and the ID->index mapping Views need. It is shared by
// every View derived between two compactions.
type Base struct {
	lookup LookupFunc
	// batch is the optional batched lookup (nil bases serve batches as a
	// scalar loop).
	batch BatchLookupFunc
	set   *rule.Set
	// packed is set's rules in the match kernel's form, index-aligned: what
	// the tombstoned-winner rescan walks instead of the 96-byte rules.
	packed    []rule.Packed
	indexByID map[int]int
}

// NewBase wraps a built classifier as an overlay base. The set must be in
// canonical form (rule i has Priority i), which every engine-built and
// artifact-loaded set satisfies.
func NewBase(set *rule.Set, lookup LookupFunc) (*Base, error) {
	return NewBasePacked(set, lookup, nil, nil)
}

// NewBaseBatch is NewBase with an additional batched base lookup, which
// View.ClassifyBatch uses to classify whole spans against the base in one
// call. batch may be nil, in which case batches degrade to scalar lookups.
func NewBaseBatch(set *rule.Set, lookup LookupFunc, batch BatchLookupFunc) (*Base, error) {
	return NewBasePacked(set, lookup, batch, nil)
}

// NewBasePacked is NewBaseBatch for a caller that already holds the packed
// projection of set's rules (rule.PackRules order — a compiled classifier
// does): the base shares it instead of packing a second copy. A nil packed
// makes the base pack its own.
func NewBasePacked(set *rule.Set, lookup LookupFunc, batch BatchLookupFunc, packed []rule.Packed) (*Base, error) {
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

// Classify returns the highest-priority rule of the merged list matching p,
// or ok=false. The path is allocation-free: one base lookup (with a
// tombstone check on its winner) and a scan of the overlay rules that could
// beat it.
func (v *View) Classify(p rule.Packet) (rule.Rule, bool) {
	br, bok := v.base.lookup(p)
	return v.resolve(p, br, bok)
}

// batchScratch stages one ClassifyBatch call's base lookup results.
type batchScratch struct {
	rules []rule.Rule
	oks   []bool
}

// batchScratches recycles base-result scratches. A buffered channel rather
// than sync.Pool so the batch path's zero-alloc steady state is
// deterministic under the race detector too (Pool drops a fraction of Puts
// there); extras beyond the freelist capacity simply allocate.
var batchScratches = make(chan *batchScratch, 64)

func getBatchScratch(n int) *batchScratch {
	var sc *batchScratch
	select {
	case sc = <-batchScratches:
	default:
		sc = new(batchScratch)
	}
	if cap(sc.rules) < n {
		sc.rules = make([]rule.Rule, n)
		sc.oks = make([]bool, n)
	}
	return sc
}

func putBatchScratch(sc *batchScratch) {
	select {
	case batchScratches <- sc:
	default:
	}
}

// ClassifyBatch classifies ps[i] into (rules[i], oks[i]) for every i,
// result-identical to per-packet Classify calls. The base lookups run as one
// batched call when the base provides one (so a compiled tree base serves
// the span through its frontier walk); tombstone resolution
// and the overlay scan stay scalar per packet — the overlay is small by
// construction, the base is where the memory latency lives.
func (v *View) ClassifyBatch(ps []rule.Packet, rules []rule.Rule, oks []bool) {
	if v.base.batch == nil || len(ps) < 2 {
		for i, p := range ps {
			rules[i], oks[i] = v.Classify(p)
		}
		return
	}
	sc := getBatchScratch(len(ps))
	brs, boks := sc.rules[:len(ps)], sc.oks[:len(ps)]
	v.base.batch(ps, brs, boks)
	for i, p := range ps {
		rules[i], oks[i] = v.resolve(p, brs[i], boks[i])
	}
	putBatchScratch(sc)
}

// resolve merges one packet's precomputed base lookup result with the
// tombstone set and the overlay. It is the shared back half of Classify and
// ClassifyBatch.
func (v *View) resolve(p rule.Packet, baseRule rule.Rule, baseOK bool) (rule.Rule, bool) {
	k := p.Key()
	// rank is the base winner's; without one it sorts behind every rule.
	rank := math.MaxInt32
	if baseOK {
		bi := baseRule.Priority
		if v.tombsN > 0 && v.tombstoned(bi) {
			// The base's best match is deleted: rescan the base list past
			// the tombstones. This cannot be pushed into the base structure
			// itself (see LookupFunc); it is the slow path and only runs
			// when a deleted rule would have won.
			packed := v.base.packed
			for bi++; bi < len(packed); bi++ {
				if packed[bi].Matches(k) && !v.tombstoned(bi) {
					break
				}
			}
			baseOK = bi < len(packed)
		}
		if baseOK {
			rank = v.baseRank(bi)
		}
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
			return v.merged.Rule(int(o.rank) + j), true
		}
	}
	if !baseOK {
		return rule.Rule{}, false
	}
	// j overlay rules sit ahead of the base winner.
	return v.merged.Rule(rank + j), true
}
