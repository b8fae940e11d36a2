// Package compiled is the immutable, cache-friendly serving representation
// shared by every tree-based classification backend in this repository
// (NeuroCuts, HiCuts, HyperCuts, EffiCuts, CutSplit).
//
// The build-time representation (internal/tree) is a pointer-linked tree:
// convenient to grow one action at a time, but hostile to the serve path —
// every step of a lookup chases a pointer, every leaf holds its own slice,
// and partition nodes force recursion. Compile flattens one or more finished
// trees into contiguous arrays:
//
//   - nodes live in one []node slab in BFS order, children of a node are a
//     contiguous index span (child indices are always greater than the
//     parent's, so traversal provably terminates);
//   - leaves reference rules as spans into one shared slab of indices into
//     the classifier's rule list. A tree node's rule list is the same thing
//     — positions in the list the tree was built over — so Compile copies
//     leaf lists out as they stand and only checks that the list is the
//     set's. The serving slab stores each distinct leaf list once and every
//     leaf with that list points at the one copy (shareLeafSpans), and it
//     holds 16-bit indices for a table of at most 65 536 rules, 32-bit ones
//     only above that; so rule replication costs 2 bytes (4 on a wider
//     table) per reference of a distinct list, not 4 per leaf;
//   - cut geometry (origin, step, fan-out per dimension) is stored in flat
//     descriptor arrays — only for multi-dimension cuts, a single-dimension
//     cut's geometry lives in its node — equi-dense boundary points are
//     32-bit, the width of the widest packet field, and rules are
//     additionally packed into the 32-byte match-only records of
//     rule.Packed, so the leaf scan touches nothing but small integers and
//     spends one branch per rule.
//
// Lookup is iterative and allocation-free: a fixed-size index stack replaces
// recursion (partition nodes and multi-tree classifiers push work onto it),
// sized at compile time so the fallback heap path is never taken for
// real-world trees.
//
// The compiled form is also the repository's on-disk artifact: Save/Load
// give it a versioned, length-prefixed, checksummed binary encoding so a
// tree trained or built once can be served by later processes without
// rebuilding (see format.go). The artifact holds the canonical layout —
// every leaf's own span in node order as 32-bit indices, every cut's
// descriptors, 64-bit boundary points, the roots in node order — and the
// serving layout (shared, narrowed spans, 32-bit points, the
// multi-dimension descriptors alone, the walk order) is derived from it on
// Compile and Load alike (deriveServing), so artifacts do not depend on how
// it is derived.
package compiled

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"unsafe"

	"neurocuts/internal/rule"
)

// Node kinds of the flat representation.
const (
	// kindLeaf scans its rule span linearly.
	kindLeaf uint8 = iota
	// kindCut locates one child arithmetically from equal-sized cut geometry
	// (possibly over several dimensions at once).
	kindCut
	// kindCustomCut locates one child by binary search over explicit
	// boundary points in a single dimension (equi-dense cuts).
	kindCustomCut
	// kindPartition pushes every child: each holds a disjoint rule subset
	// over the same box, so all must be consulted.
	kindPartition

	kindMax = kindPartition
)

// node is one flat tree node, packed to exactly 32 bytes so two nodes share
// each 64-byte cache line and every dispatch-relevant field of a node is
// reachable from one line fill (pinned by TestNodeLayout). The a/b fields
// are overloaded by kind: leaves use them as a span into the leaf-rule slab,
// internal nodes as a span of child node indices.
//
// The first cut descriptor of a kindCut node is denormalized inline
// (dim0/lo0/step0): single-dimension cuts — the overwhelmingly common case —
// dispatch without touching the cutDescs slab at all, because their fan-out
// equals the child count b, and the serving cutDescs slab keeps no
// descriptor for them. Multi-dimension cuts still read their full
// descriptor span. The boundary count of a kindCustomCut node is always its
// child count minus one, so it is not stored. Both facts keep the on-disk
// record (which still carries an explicit cutN and every cut's descriptors)
// derivable, so the artifact schema is unchanged; Load reconstructs the
// inline fields (deriveInline) and Save the descriptors (canonical).
type node struct {
	kind uint8
	// ndims is the cut-dimension count for kindCut and the single cut
	// dimension index for kindCustomCut; unused otherwise.
	ndims uint8
	// dim0 is the first cut dimension for kindCut (== cutDescs[cut].dim).
	dim0 uint8
	_    uint8
	// a is the first leaf-rule index (leaf) or first child node index.
	a uint32
	// b is the leaf-rule count (leaf) or child count. For kindCustomCut the
	// boundary point count is b-1.
	b uint32
	// cut is the first cut-descriptor index (kindCut over several
	// dimensions; 0 for one) or the first boundary point index
	// (kindCustomCut).
	cut uint32
	// lo0/step0 are the first cut descriptor's origin and step for kindCut,
	// with a step of 0 normalized to MaxUint64 so piece computation divides
	// unconditionally (see cutPiece); packet field values are at most 32-bit,
	// so the normalized divide still always yields piece 0.
	lo0   uint64
	step0 uint64
}

// cutDesc describes an equal-sized cut in one dimension: piece index is
// (v - lo) / step, clamped to count-1 so the final remainder piece absorbs
// the tail (mirroring tree.splitRange's layout exactly).
type cutDesc struct {
	lo    uint64
	step  uint64
	count uint32
	dim   uint8
}

// Classifier is the immutable compiled form of one classifier: one or more
// flattened decision trees over a shared rule list. It is safe for
// concurrent use; all fields are read-only after Compile or Load.
type Classifier struct {
	// rules is the full classifier in priority order (what Lookup returns).
	rules []rule.Rule
	// packed is rules projected to the match-only form, index-aligned. It
	// carries no priority: the rule list is priority-sorted, so a rule's
	// index is its rank, and leaf spans ascend by index (see validate).
	packed []rule.Packed
	// nodes is the flat node slab across all trees, children contiguous.
	nodes []node
	// leafRules is the slab of rule indices referenced by leaves, as 32
	// bits. Compile and Load fill it in the canonical layout, every leaf's
	// own span; deriveServing leaves it serving each distinct leaf list once
	// (see shareLeafSpans) for a table of more than maxNarrowRules rules,
	// and nil otherwise.
	leafRules []uint32
	// leafRules16 is the serving leaf slab of a table of at most
	// maxNarrowRules rules, each distinct leaf list once as 16-bit rule
	// indices; nil for a wider table. Exactly one of the two serves.
	leafRules16 []uint16
	// cutDescs holds the equal-cut geometry spans of multi-dimension kindCut
	// nodes; a single-dimension cut's geometry is inline in its node.
	cutDescs []cutDesc
	// cutPoints holds the boundary spans referenced by kindCustomCut nodes,
	// as 32 bits: validate holds every point to its dimension's range, and
	// no packet field is wider.
	cutPoints []uint32
	// cutPoints64 is the canonical boundary slab, 64-bit like the
	// artifact's: Compile and Load fill it, and deriveServing narrows it
	// into cutPoints and drops it.
	cutPoints64 []uint64
	// roots indexes the root node of each compiled tree, in the order the
	// lookups push them: both walk the last one first (see orderRoots).
	roots []uint32

	stats Stats
}

// Stats summarises a compiled classifier's structure.
type Stats struct {
	// Nodes and Leaves count the flat nodes.
	Nodes  int
	Leaves int
	// Roots is the number of compiled trees (EffiCuts/CutSplit build
	// several; single-tree backends have 1).
	Roots int
	// Rules is the size of the shared rule list.
	Rules int
	// LeafRuleRefs is the total number of leaf rule references, counted per
	// leaf whether or not its list is shared (LeafRuleRefs / Rules is the
	// replication factor).
	LeafRuleRefs int
	// MaxStack is the worst-case traversal stack occupancy, computed at
	// compile time; lookups below lookupStackSize run allocation-free.
	MaxStack int
	// WorstCaseVisits is the worst-case number of node visits per lookup
	// (max over cut children, sum over partition children and roots).
	WorstCaseVisits int
	// MemoryBytes is the actual byte size of the serving arrays, excluding
	// the full rule.Rule list kept for returning matches: the sum of the
	// four figures below.
	MemoryBytes int
	// NodeBytes is the node slab and the root list.
	NodeBytes int
	// LeafSpanBytes is the leaf-rule slab: per rule reference of each
	// distinct leaf list, however many leaves share it, 2 bytes for a table
	// of at most 65 536 rules and 4 above that.
	LeafSpanBytes int
	// CutBytes is the cut geometry kept outside the nodes: multi-dimension
	// cut descriptors (24 bytes each) and equi-dense boundary points (4
	// bytes each).
	CutBytes int
	// PackedBytes is the packed match records, 32 bytes per rule.
	PackedBytes int
}

// Stats returns the classifier's structural summary.
func (c *Classifier) Stats() Stats { return c.stats }

// Rules returns the classifier's rule list in priority order. The slice
// must not be modified.
func (c *Classifier) Rules() []rule.Rule { return c.rules }

// Packed returns the rule list's match-only projection, index-aligned with
// Rules. The update overlay shares it for its tombstone rescans instead of
// packing a second copy. The slice must not be modified.
func (c *Classifier) Packed() []rule.Packed { return c.packed }

// RuleSet reconstructs a rule.Set over the classifier's rules, preserving
// priorities and IDs. Engine warm starts use it as the update base.
func (c *Classifier) RuleSet() *rule.Set {
	return rule.NewSetKeepPriorities(c.rules)
}

// deriveServing turns validated canonical slabs — what Compile emits and an
// artifact stores — into the serving layout: the node slab on a cache-line
// boundary, the packed rules, each distinct leaf list stored once in the
// narrowest rule index that fits, 32-bit boundary points, only the
// multi-dimension cut descriptors, and the walk order of the roots. The
// served trees do not change: every leaf reads the same rule list and every
// cut dispatches to the same child. Compile and Load both end here, so a
// loaded artifact serves exactly what its compiled original did.
func (c *Classifier) deriveServing() {
	c.nodes = alignNodeSlab(c.nodes)
	c.packed = rule.PackRules(c.rules)
	c.shareLeafSpans(spanHash())
	c.narrowCutPoints()
	c.keepMultiCutDescs()
	c.orderRoots()
	c.computeStats()
}

// maxNarrowRules is the most rules a table may have for its leaves to
// reference them by 16-bit index.
const maxNarrowRules = 1 << 16

// leafRef is the element of a serving leaf slab: a rule index.
type leafRef interface{ ~uint16 | ~uint32 }

// shareLeafSpans replaces the canonical c.leafRules by the serving slab,
// which stores each distinct leaf rule list once: the first leaf in node
// order keeps its copy, and every later leaf with the same list points its
// span at that copy. A leaf shares only when its list hashes like an earlier
// one and equals it element by element, so two lists that differ anywhere,
// in length included, never share; a leaf whose hash some other list took
// first keeps its own copy. A table of at most maxNarrowRules rules is
// served from 16-bit indices (c.leafRules16, and c.leafRules goes nil), a
// wider one from 32-bit ones. The new slab is allocated at its exact size,
// so the canonical one is left to the collector. The hash is an argument so
// that a test can make lists collide.
func (c *Classifier) shareLeafSpans(hash func([]uint32) uint64) {
	// first maps a list's hash to the first leaf holding a list with it.
	first := make(map[uint64]uint32, len(c.nodes))
	// owner[i] is the leaf whose copy leaf i reads: itself or an earlier one.
	owner := make([]uint32, len(c.nodes))
	distinct := 0
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.kind != kindLeaf {
			continue
		}
		span := c.leafRules[nd.a : nd.a+nd.b]
		h := hash(span)
		if o, ok := first[h]; ok {
			if on := &c.nodes[o]; slices.Equal(c.leafRules[on.a:on.a+on.b], span) {
				owner[i] = o
				continue
			}
		} else {
			first[h] = uint32(i)
		}
		owner[i] = uint32(i)
		distinct += len(span)
	}
	if len(c.rules) <= maxNarrowRules {
		c.leafRules16 = distinctSpans[uint16](c, owner, distinct)
		c.leafRules = nil
	} else {
		c.leafRules = distinctSpans[uint32](c, owner, distinct)
	}
}

// distinctSpans copies the lists of the leaves that own theirs out of the
// canonical slab, into a new one of exactly distinct references, and points
// every leaf's span into it.
func distinctSpans[R leafRef](c *Classifier, owner []uint32, distinct int) []R {
	// Owners precede the leaves that share their copy, so by the time a
	// sharing leaf is reached its owner's span is already in the new slab.
	slab := make([]R, 0, distinct)
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.kind != kindLeaf {
			continue
		}
		if o := owner[i]; o != uint32(i) {
			nd.a = c.nodes[o].a
			continue
		}
		a := uint32(len(slab))
		for _, ri := range c.leafRules[nd.a : nd.a+nd.b] {
			slab = append(slab, R(ri))
		}
		nd.a = a
	}
	return slab
}

// appendLeaf appends the rule list of leaf nd, as the lookups read it from
// the serving slab, to dst as 32-bit indices.
func (c *Classifier) appendLeaf(dst []uint32, nd *node) []uint32 {
	if c.leafRules16 == nil {
		return append(dst, c.leafRules[nd.a:nd.a+nd.b]...)
	}
	for _, ri := range c.leafRules16[nd.a : nd.a+nd.b] {
		dst = append(dst, uint32(ri))
	}
	return dst
}

// spanHash returns a hash of leaf rule lists that reads a list's bytes in
// place, without copying them, under a fresh seed.
func spanHash() func([]uint32) uint64 {
	seed := maphash.MakeSeed()
	return func(span []uint32) uint64 {
		return maphash.Bytes(seed, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(span))), 4*len(span)))
	}
}

// narrowCutPoints replaces the canonical 64-bit boundary points by the
// 32-bit serving slab. validate has held every point to its dimension's
// range, so none is truncated.
func (c *Classifier) narrowCutPoints() {
	c.cutPoints = make([]uint32, len(c.cutPoints64))
	for i, p := range c.cutPoints64 {
		c.cutPoints[i] = uint32(p)
	}
	c.cutPoints64 = nil
}

// keepMultiCutDescs drops the descriptors of single-dimension cuts from
// c.cutDescs: such a node dispatches from its inline dim0/lo0/step0 and its
// child count, so the serving slab keeps only what multi-dimension cuts read,
// and their cut indices are rewritten into it. Save rebuilds the canonical
// descriptor slab from the nodes (canonical).
func (c *Classifier) keepMultiCutDescs() {
	n := 0
	for i := range c.nodes {
		if nd := &c.nodes[i]; nd.kind == kindCut && nd.ndims > 1 {
			n += int(nd.ndims)
		}
	}
	descs := make([]cutDesc, 0, n)
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.kind != kindCut {
			continue
		}
		if nd.ndims == 1 {
			nd.cut = 0
			continue
		}
		cut := uint32(len(descs))
		descs = append(descs, c.cutDescs[nd.cut:nd.cut+uint32(nd.ndims)]...)
		nd.cut = cut
	}
	c.cutDescs = descs
}

// probeRules is how many rules orderRoots samples at most.
const probeRules = 1024

// orderRoots permutes c.roots into the order the walks visit the trees in.
// Both walks take c.roots last first, and which tree's leaf is scanned first
// decides how many rules the running best cuts off in the others, so the
// tree that most often holds a packet's winner goes last.
//
// Traffic is modelled the way ClassBench traces draw it, from inside the
// rules: one packet at the low corner of every ⌈n/probeRules⌉-th rule walks
// each tree alone, and the tree holding its best match wins it. Trees rank
// by wins; ties go by node index, the highest walked first, which is how
// Compile's trees were walked before they were ranked. The order is a
// function of the slabs alone, never of the stored root list, so Save
// writes the roots in node order and Load derives the walk order again.
func (c *Classifier) orderRoots() {
	slices.Sort(c.roots)
	if len(c.roots) < 2 || len(c.rules) == 0 {
		return
	}
	type rootWins struct {
		root uint32
		wins int
	}
	ranked := make([]rootWins, len(c.roots))
	for j, r := range c.roots {
		ranked[j].root = r
	}
	stack := make([]uint32, 0, lookupStackSize)
	step := (len(c.rules) + probeRules - 1) / probeRules
	for i := 0; i < len(c.rules); i += step {
		p := lowCorner(&c.rules[i])
		best, winner := noMatch, -1
		for j, r := range c.roots {
			if b := uint32(c.lookupIndex(p, append(stack[:0], r))); b < best {
				best, winner = b, j
			}
		}
		if winner >= 0 {
			ranked[winner].wins++
		}
	}
	slices.SortStableFunc(ranked, func(a, b rootWins) int { return cmp.Compare(a.wins, b.wins) })
	for j := range ranked {
		c.roots[j] = ranked[j].root
	}
}

// lowCorner is the packet at the low end of every one of r's ranges.
func lowCorner(r *rule.Rule) rule.Packet {
	return rule.Packet{
		SrcIP:   uint32(r.Ranges[rule.DimSrcIP].Lo),
		DstIP:   uint32(r.Ranges[rule.DimDstIP].Lo),
		SrcPort: uint16(r.Ranges[rule.DimSrcPort].Lo),
		DstPort: uint16(r.Ranges[rule.DimDstPort].Lo),
		Proto:   uint8(r.Ranges[rule.DimProto].Lo),
	}
}

// computeStats fills c.stats: sizes, worst-case lookup cost and the
// traversal stack bound. Children always have larger indices than their
// parent, so one reverse pass computes both bottom-up quantities.
func (c *Classifier) computeStats() {
	st := Stats{
		Nodes: len(c.nodes),
		Roots: len(c.roots),
		Rules: len(c.rules),
	}
	// growth[i]: max stack slots used while processing the subtree at i
	// (node i itself already popped). visits[i]: worst-case node visits.
	growth := make([]int, len(c.nodes))
	visits := make([]int, len(c.nodes))
	for i := len(c.nodes) - 1; i >= 0; i-- {
		nd := &c.nodes[i]
		switch nd.kind {
		case kindLeaf:
			st.Leaves++
			st.LeafRuleRefs += int(nd.b)
			visits[i] = 1
		case kindCut, kindCustomCut:
			maxG, maxV := 0, 0
			for j := uint32(0); j < nd.b; j++ {
				ci := nd.a + j
				if g := growth[ci]; g > maxG {
					maxG = g
				}
				if v := visits[ci]; v > maxV {
					maxV = v
				}
			}
			growth[i] = maxG
			visits[i] = 1 + maxV
		default: // kindPartition
			k := int(nd.b)
			g := k // momentary occupancy right after pushing all children
			sum := 0
			// Children are pushed in order a..a+k-1 and popped LIFO, so the
			// child at offset j still has j siblings below it on the stack.
			for j := 0; j < k; j++ {
				ci := nd.a + uint32(j)
				if v := j + growth[ci]; v > g {
					g = v
				}
				sum += visits[ci]
			}
			growth[i] = g
			visits[i] = 1 + sum
		}
	}
	st.MaxStack = len(c.roots)
	for j, r := range c.roots {
		// Roots are pushed in order and popped LIFO, like partition children.
		if v := j + growth[r]; v > st.MaxStack {
			st.MaxStack = v
		}
		st.WorstCaseVisits += visits[r]
	}
	st.NodeBytes = len(c.nodes)*nodeBytes + len(c.roots)*4
	st.LeafSpanBytes = len(c.leafRules)*4 + len(c.leafRules16)*2
	st.CutBytes = len(c.cutDescs)*cutDescBytes + len(c.cutPoints)*4
	st.PackedBytes = len(c.packed) * packedRuleBytes
	st.MemoryBytes = st.NodeBytes + st.LeafSpanBytes + st.CutBytes + st.PackedBytes
	c.stats = st
}

// In-memory sizes used for the MemoryBytes accounting (kept in sync with
// the struct definitions above; padded sizes, pinned by TestNodeLayout).
const (
	nodeBytes       = 32
	cutDescBytes    = 24
	packedRuleBytes = 32
)

// nodeLineAlign is the byte alignment of the node slab: one cache line, so
// node pairs never straddle a line boundary.
const nodeLineAlign = 64

// alignNodeSlab copies nodes into a 64-byte-aligned backing array. Go slice
// allocations only guarantee the element alignment (8 bytes here), so the
// slab is carved out of an over-allocated byte buffer instead; the interior
// pointer keeps the buffer alive and node contains no pointers, so the cast
// is GC-safe.
func alignNodeSlab(nodes []node) []node {
	if len(nodes) == 0 {
		return nodes
	}
	buf := make([]byte, len(nodes)*nodeBytes+nodeLineAlign-1)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % nodeLineAlign; rem != 0 {
		off = int(nodeLineAlign - rem)
	}
	out := unsafe.Slice((*node)(unsafe.Pointer(&buf[off])), len(nodes))
	copy(out, nodes)
	return out
}

// deriveInline reconstructs the denormalized per-node fields (dim0, lo0,
// step0) from the cut-descriptor slab. Compile fills them directly; Load
// calls this after decoding, because the artifact stores only the canonical
// descriptor slab. It bounds-checks the descriptor span itself so it is safe
// on untrusted input ahead of full validation.
func (c *Classifier) deriveInline() error {
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.kind != kindCut {
			continue
		}
		if nd.ndims == 0 || uint64(nd.cut)+uint64(nd.ndims) > uint64(len(c.cutDescs)) {
			return fmt.Errorf("node %d: cut descriptor span out of range", i)
		}
		d := &c.cutDescs[nd.cut]
		nd.dim0 = d.dim
		nd.lo0 = d.lo
		nd.step0 = normStep(d.step)
	}
	return nil
}

// normStep maps a zero cut step to MaxUint64 so the hot path can divide
// without a zero guard: packet field values fit 32 bits, so (v-lo)/MaxUint64
// is 0 whenever v > lo, which is exactly the piece a zero-step descriptor
// selects. Compile never emits a zero step (splitRange guarantees step >= 1),
// but Load accepts artifacts that do.
func normStep(step uint64) uint64 {
	if step == 0 {
		return ^uint64(0)
	}
	return step
}
