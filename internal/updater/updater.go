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
//     then tests the overlay rules the packet's address bytes leave as
//     candidates, in order, stopping at the first match or at the first
//     candidate that sorts behind the base winner. No allocations.
//
// Rank scheme: a rule's rank is the number of live (non-tombstoned) base
// rules ahead of it in the merged list. Live base rules therefore have ranks
// 0, 1, 2, ...; an overlay rule shares the rank of the base rule it sits
// directly in front of and beats it on the tie. Overlay records are stored in
// merged order, so their ranks ascend, and merged index = rank + number of
// overlay rules at or ahead of the rule — for an overlay rule its own
// position in the overlay, for a base rule a branch-free count over the
// overlay's ranks. Nothing in the scheme can run out: any rule fits the
// overlay, and any number of them fit between two base rules.
//
// Cost model: a View answers with a position — the winner's index in its
// merged list, or -1 — and the base answers it with one: a lookup moves
// int32s from the base through the tombstone check and the overlay probe, and
// copies no rule. The probe is Lakshman–Stiliadis bit-vector filtering on the
// two address fields: per top address byte, a mask of the overlay rules whose
// range reaches that /8. A packet ANDs its two rows (2·⌈overlay/64⌉ words)
// and packed-compares only the rules left ranked at or above the base winner,
// on ClassBench tables almost never one. The engine's compaction threshold
// bounds the overlay (256 pending updates by default: 10 KB of records, 16 KB
// of masks). Tuple Space Search, the structure the overlay used to be,
// loses at this size: ClassBench port ranges expand into prefix tuples, so
// 256 rules spread over ~400 hash tables and every lookup pays one 40-byte
// key hash per table whether or not the table can match. The Rule-shaped
// entry points (NewBase, NewBaseBatch, View.Classify, View.ClassifyBatch) are
// wrappers over the position path for callers that hold rules.
//
// A View is base + ops. It carries no rule list of its own: a per-position
// source index says where each merged position's rule lives (a base index,
// or ^j for overlay rule j), so materializing a winner is one lookup in that
// index — a load from its chunk directory, a few cache lines, then the entry
// — and one copy, its Priority written as its position. An update derives the
// successor from the last view (View.Insert, View.Delete): it copies the
// overlay records, ranks and rule pointers, opens or closes one bit in every
// candidate-mask row, sets one tombstone bit and fixes the later tombstone
// words' counts, and shifts the source index from the changed position on
// (chunked, so the chunks ahead of that position are shared). That is
// O(overlay + rules/64 words + one int32 shift) and copies no rule.Rule and
// renumbers nothing. NewView derives a view from a whole merged list in one
// pass instead — what journal replay and the rebase after a compaction use,
// once per start-up or compaction — and View.Merged materializes the whole
// list when a caller needs it. Views are immutable: the engine publishes
// each new View through its RCU snapshot machinery, so concurrent readers
// never see a torn update and never block. The engine's compaction
// (started by the update that reaches its threshold) rebuilds the base from
// the merged list and rebases the overlay, bounding overlay size and
// restoring base lookup speed.
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
	"slices"
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
	// lookup returns the index in rules of p's best match, or -1, under
	// LookupFunc's soundness contract.
	lookup func(p rule.Packet) int
	// batch writes lookup(ps[i]) to pos[i] in one call (nil: View.LookupBatch
	// runs lookup per packet).
	batch func(ps []rule.Packet, pos []int32)
	// ruleBatch is NewBaseBatch's Rule-shaped batch, nil for other bases.
	ruleBatch BatchLookupFunc
	// rules is the list of the set the base was built over: what a base
	// position materializes from.
	rules []rule.Rule
	// packed is rules in the match kernel's form, index-aligned: what the
	// tombstoned-winner rescan walks instead of the 96-byte rules.
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
	return &Base{lookup: lookup, batch: batch, rules: set.Rules(), packed: packed, indexByID: idx}, nil
}

// overlayRule is one overlay rule as the lookup tests it: its packed
// match-only projection (the record internal/compiled scans in its leaves,
// tested by the same kernel) and its ID, kept beside the record so finding a
// rule by ID scans the records instead of chasing a pointer per rule. A rule
// no packet can satisfy packs to a record that matches nothing (see
// rule.Pack).
type overlayRule struct {
	match rule.Packed
	id    int
}

// tombWord is 64 base rules' worth of tombstone bits plus the number of
// tombstones in all earlier words, so the count of tombstones ahead of any
// base rule is one load and one popcount.
type tombWord struct {
	bits   uint64
	before uint32
}

// View is one immutable merged (base + overlay + tombstones) generation.
// All fields are read-only once built; lookups are safe for concurrent use
// and allocation-free. A successor view (Insert, Delete) shares whatever
// the op leaves unchanged with its predecessor and copies the rest.
type View struct {
	base *Base
	// overlay holds the non-base rules in merged order, and ranks their
	// ranks, index-aligned: the number of live base rules ahead of each in
	// the merged list (see the package comment). Ranks ascend, overlay[j] is
	// merged rule ranks[j]+j, and the dense ranks keep the per-packet binary
	// search over them (aheadOf) on a few cache lines.
	overlay []overlayRule
	ranks   []int32
	// rules holds the overlay rules themselves, index-aligned with overlay:
	// what a materialized overlay position copies out. A stored rule's
	// Priority is meaningless; materializing writes it.
	rules []*rule.Rule
	// masks holds 256 source rows then 256 destination rows of words uint64s
	// each, indexed by the address's top byte. Bit j of a row is set when
	// overlay[j]'s range of that address reaches the /8, so a packet can
	// match only the overlay rules set in both of its rows.
	masks []uint64
	words int
	// tombs marks the deleted base rule indices.
	tombs  []tombWord
	tombsN int
	// src says where each merged position's rule lives: a base index, or ^j
	// for overlay rule j. It is the one per-rule array an update copies,
	// from the changed position on.
	src srcIndex
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
// allocates the view, its overlay (records, ranks, rule copies and their
// pointers), its candidate masks, its tombstone words and its source index,
// whatever the overlay's size (up to stackOverlay rules). It serves journal
// replay and the rebase after a compaction; a single update derives its view
// from the last one instead (Insert, Delete). The view keeps no reference to
// merged.
func NewView(b *Base, merged *rule.Set) (*View, error) {
	baseRules, rules := b.rules, merged.Rules()
	v := &View{base: b, tombs: make([]tombWord, (len(baseRules)+63)/64), src: newSrcIndex(len(rules))}
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
				v.src.set(i, ^int32(len(overlayAt)))
				overlayAt = append(overlayAt, int32(i))
				continue
			}
			if bi < next {
				return nil, fmt.Errorf("updater: merged list reorders base rules (id %d)", r.ID)
			}
		}
		v.src.set(i, int32(bi))
		v.tombstone(next, bi)
		next = bi + 1
	}
	v.tombstone(next, len(baseRules))
	for w := 1; w < len(v.tombs); w++ {
		v.tombs[w].before = v.tombs[w-1].before + uint32(bits.OnesCount64(v.tombs[w-1].bits))
	}
	v.overlay = make([]overlayRule, len(overlayAt))
	v.ranks = make([]int32, len(overlayAt))
	v.rules = make([]*rule.Rule, len(overlayAt))
	copies := make([]rule.Rule, len(overlayAt))
	v.words = (len(overlayAt) + 63) / 64
	v.masks = make([]uint64, 2*256*v.words)
	for j, i := range overlayAt {
		r := &rules[i]
		copies[j] = *r
		v.rules[j] = &copies[j]
		v.overlay[j] = overlayRule{match: rule.Pack(r), id: r.ID}
		v.ranks[j] = i - int32(j)
		v.markRule(r, j)
	}
	return v, nil
}

// View returns the view of the base with nothing pending: every base rule
// live, in base order. It is where the first update after a build or a
// compaction starts from.
func (b *Base) View() *View {
	src := newSrcIndex(len(b.rules))
	for i := range b.rules {
		src.set(i, int32(i))
	}
	return &View{base: b, tombs: make([]tombWord, (len(b.rules)+63)/64), src: src}
}

// Insert returns the successor view with r placed at merged position pos
// (clamped to [0, Len()]). r.ID must be fresh: no base rule, dead or live,
// and no overlay rule may carry it. The receiver is left untouched. The
// successor shares the tombstones, copies the overlay (records, ranks, rule
// pointers and candidate masks, one bit opened at the new rule's index),
// shifts the source index from pos on, and stores one copy of r; no other
// rule is copied.
func (v *View) Insert(pos int, r rule.Rule) (*View, error) {
	pos = max(0, min(pos, v.src.n))
	if _, inBase := v.base.indexByID[r.ID]; inBase || v.overlayIndex(r.ID) >= 0 {
		return nil, fmt.Errorf("updater: insert of rule id %d, which the view already holds", r.ID)
	}
	if v.src.n >= math.MaxInt32-1 {
		return nil, fmt.Errorf("updater: view of %d rules is at the 32-bit rank space", v.src.n)
	}
	// j is the new rule's overlay index: the overlay rules ahead of pos.
	j := sort.Search(len(v.ranks), func(k int) bool { return int(v.ranks[k])+k >= pos })
	stored := r
	nv := &View{base: v.base, tombs: v.tombs, tombsN: v.tombsN}
	nv.overlay = slices.Insert(slices.Clip(v.overlay), j, overlayRule{match: rule.Pack(&r), id: r.ID})
	nv.ranks = slices.Insert(slices.Clip(v.ranks), j, int32(pos-j))
	nv.rules = slices.Insert(slices.Clip(v.rules), j, &stored)
	nv.words = (len(nv.overlay) + 63) / 64
	nv.masks = make([]uint64, 2*256*nv.words)
	for row := 0; row < 2*256; row++ {
		insertBit(nv.masks[row*nv.words:][:nv.words], v.masks[row*v.words:][:v.words], j)
	}
	nv.markRule(&r, j)
	nv.src = v.src.insert(pos, ^int32(j))
	nv.restamp(j + 1)
	return nv, nil
}

// Delete returns the successor view without the live rule carrying id, or
// ok=false when no live rule does. The receiver is left untouched. A base
// rule becomes a tombstone: the successor copies the tombstone words, shares
// the overlay records and candidate masks, and copies the overlay ranks only
// when some rank behind the deleted rule moves. An overlay rule leaves the overlay, its
// mask bit closed up. Either way the source index shifts from the deleted
// position on, and no rule is copied.
func (v *View) Delete(id int) (nv *View, ok bool) {
	if bi, inBase := v.base.indexByID[id]; inBase {
		if v.tombstoned(bi) {
			return nil, false
		}
		rank := v.baseRank(bi)
		ahead := v.aheadOf(rank)
		nv = &View{base: v.base, overlay: v.overlay, rules: v.rules, masks: v.masks, words: v.words, tombsN: v.tombsN + 1}
		nv.tombs = slices.Clone(v.tombs)
		nv.tombs[bi>>6].bits |= 1 << (uint(bi) & 63)
		for w := bi>>6 + 1; w < len(nv.tombs); w++ {
			nv.tombs[w].before++
		}
		// The overlay rules behind the deleted rule lose one live base rule
		// ahead of them; the ones in front of it keep their ranks.
		nv.ranks = v.ranks
		if ahead < len(v.ranks) {
			nv.ranks = slices.Clone(v.ranks)
			for k := ahead; k < len(nv.ranks); k++ {
				nv.ranks[k]--
			}
		}
		nv.src = v.src.remove(rank + ahead)
		return nv, true
	}
	j := v.overlayIndex(id)
	if j < 0 {
		return nil, false
	}
	nv = &View{base: v.base, tombs: v.tombs, tombsN: v.tombsN}
	nv.overlay = slices.Delete(slices.Clone(v.overlay), j, j+1)
	nv.ranks = slices.Delete(slices.Clone(v.ranks), j, j+1)
	nv.rules = slices.Delete(slices.Clone(v.rules), j, j+1)
	nv.words = (len(nv.overlay) + 63) / 64
	nv.masks = make([]uint64, 2*256*nv.words)
	for row := 0; row < 2*256; row++ {
		removeBit(nv.masks[row*nv.words:][:nv.words], v.masks[row*v.words:][:v.words], j)
	}
	nv.src = v.src.remove(int(v.ranks[j]) + j)
	nv.restamp(j)
	return nv, true
}

// restamp writes the source entries of overlay rules from index j on, whose
// overlay index an insert or delete at j moved.
func (v *View) restamp(j int) {
	for k := j; k < len(v.overlay); k++ {
		v.src.set(int(v.ranks[k])+k, ^int32(k))
	}
}

// insertBit copies the bit row src into dst, which has room for one more
// bit, with a clear bit opened at index j: the bits from j on move up one.
func insertBit(dst, src []uint64, j int) {
	w, low := j>>6, uint64(1)<<(j&63)-1
	copy(dst, src[:w])
	var carry uint64
	for k := w; k < len(src); k++ {
		x := src[k]
		if k == w {
			dst[k] = x&low | (x&^low)<<1
		} else {
			dst[k] = x<<1 | carry
		}
		carry = x >> 63
	}
	if len(dst) > len(src) {
		dst[len(src)] = carry
	}
}

// removeBit copies the bit row src into dst, which has room for one bit
// fewer, without bit j: the bits above j move down one.
func removeBit(dst, src []uint64, j int) {
	w, low := j>>6, uint64(1)<<(j&63)-1
	copy(dst, src[:min(w, len(dst))])
	for k := w; k < len(dst); k++ {
		x := src[k] >> 1
		if k == w {
			x = src[k]&low | x&^low
		}
		if k+1 < len(src) {
			x |= src[k+1] << 63
		}
		dst[k] = x
	}
}

// markRule sets overlay rule j's bits in the source and destination rows.
func (v *View) markRule(r *rule.Rule, j int) {
	v.mark(0, r.Ranges[rule.DimSrcIP], j)
	v.mark(256, r.Ranges[rule.DimDstIP], j)
}

// mark sets overlay rule j's bit in the rows from row0 on of every /8 the
// address range rg reaches, clipped to 32 bits as rule.Pack clips it; an
// empty range, or one wholly beyond 32 bits, sets none.
func (v *View) mark(row0 int, rg rule.Range, j int) {
	hi := min(rg.Hi, math.MaxUint32)
	if rg.Lo > hi {
		return
	}
	for b := int(rg.Lo >> 24); b <= int(hi>>24); b++ {
		v.masks[(row0+b)*v.words+j>>6] |= 1 << (j & 63)
	}
}

// tombstone marks base rules [lo, hi) deleted.
func (v *View) tombstone(lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		v.tombs[bi>>6].bits |= 1 << (uint(bi) & 63)
	}
	v.tombsN += hi - lo
}

// Len returns the number of rules in the merged list the view serves.
func (v *View) Len() int { return v.src.n }

// Rule materializes merged position i: one copy of the rule, its Priority
// set to i.
func (v *View) Rule(i int) rule.Rule {
	var r rule.Rule
	v.RuleTo(&r, i)
	return r
}

// RuleTo is Rule copying into *dst, so a caller filling a result slot pays
// one copy of the rule and no temporary.
func (v *View) RuleTo(dst *rule.Rule, i int) {
	if s := v.src.at(i); s >= 0 {
		*dst = v.base.rules[s]
	} else {
		*dst = *v.rules[^s]
	}
	dst.Priority = i
}

// Merged materializes the whole merged list the view serves: O(Len) copies
// into a new set, which the caller owns.
func (v *View) Merged() *rule.Set {
	rules := make([]rule.Rule, v.src.n)
	for i := range rules {
		v.RuleTo(&rules[i], i)
	}
	return rule.NewSetCanonical(rules)
}

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

// aheadOf returns how many overlay rules have a rank of at most rank, i.e.
// sit ahead of the live base rule of that rank: a binary search shaped like
// compiled's countLE, whose steps are conditional adds, not branches.
func (v *View) aheadOf(rank int) int {
	r := v.ranks
	if len(r) == 0 {
		return 0
	}
	base := 0 // the answer stays within [base, base+n]
	for n := len(r); n > 1; n -= n >> 1 {
		base += n >> 1 & -b2i(int(r[base+n>>1-1]) <= rank)
	}
	return base + b2i(int(r[base]) <= rank)
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// overlayIndex returns the overlay index of the rule with the given ID, or
// -1: a scan of the overlay, which the compaction threshold keeps short.
func (v *View) overlayIndex(id int) int {
	for j := range v.overlay {
		if v.overlay[j].id == id {
			return j
		}
	}
	return -1
}

// Lookup returns the merged-list position of the highest-priority rule
// matching p, or -1. The path is allocation-free and copies no rule: one base
// lookup (with a tombstone check on its winner) and a probe of the overlay
// candidates that could beat it.
func (v *View) Lookup(p rule.Packet) int32 { return v.resolve(p, v.base.lookup(p)) }

// LookupBatch writes Lookup(ps[i]) to pos[i] for every i. The base lookups
// run as one batched call when the base provides one (so a compiled tree
// base serves the span through its frontier walk), in place in pos;
// tombstone resolution and the overlay probe stay scalar per packet — the
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
	return v.Rule(int(i)), true
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
	if bi >= 0 && v.tombsN > 0 && v.tombstoned(bi) {
		// The base's best match is deleted: rescan the base list past the
		// tombstones. This cannot be pushed into the base structure itself
		// (see LookupFunc); it is the slow path and only runs when a
		// deleted rule would have won.
		k := p.Key()
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
	// of it in the merged list; the first of them to match wins. Only the
	// rules set in both of the packet's mask rows can match, and their bits
	// come in merged order, so the walk ends at the first one ranked behind.
	n := v.words
	src := v.masks[int(p.SrcIP>>24)*n:][:n]
	dst := v.masks[(256+int(p.DstIP>>24))*n:][:n]
walk:
	for w := range src {
		for m := src[w] & dst[w]; m != 0; m &= m - 1 {
			j := w<<6 | bits.TrailingZeros64(m)
			if int(v.ranks[j]) > rank {
				break walk
			}
			if v.overlay[j].match.Matches(p.Key()) {
				return v.ranks[j] + int32(j)
			}
		}
	}
	if bi < 0 {
		return -1
	}
	return int32(rank + v.aheadOf(rank))
}
