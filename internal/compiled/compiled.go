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
//   - nodes live in one []node slab in BFS order, 16 bytes each, children of
//     a node are a contiguous index span (child indices are always greater
//     than the parent's, so traversal provably terminates);
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
//     descriptor arrays — only for the cuts whose geometry does not fit a
//     node, a single-dimension cut's origin and step live in its node as
//     two 32-bit words — equi-dense boundary points are 32-bit, the width
//     of the widest packet field, and rules are additionally packed into
//     the 32-byte match-only records of rule.Packed, so the leaf scan
//     touches nothing but small integers and spends one branch per rule.
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
// serving layout (shared, narrowed spans, 32-bit points, 16-byte nodes with
// inline cut geometry, the other cuts' descriptors alone, the walk order) is
// derived from it on Compile and Load alike (deriveServing), so artifacts do
// not depend on how it is derived.
package compiled

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"unsafe"

	"neurocuts/internal/rule"
)

// Node kinds. The first four are the artifact's: Compile emits them and an
// artifact records them. kindDescCut exists in the serving slab alone.
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
	// kindDescCut is a kindCut served from its descriptors in cutDescs: one
	// over several dimensions, or over one whose step does not fit a node's
	// 32-bit word (see packNodes).
	kindDescCut
)

// node is one serving tree node, packed to 16 bytes so four nodes share each
// 64-byte cache line and a node's dispatch reads one line (pinned by
// TestNodeLayout).
//
// b holds the node's kind in its top three bits, its cut dimension in the
// three below, and its count in the low countBits: the leaf-rule count of a
// leaf, the child count of any other node. a is the first leaf-rule index of
// a leaf and the first child index of any other node. lo and step hold the
// cut geometry, by kind:
//
//   - kindCut, a single-dimension equal cut: the origin and the step, with
//     the count as the fan-out, so it dispatches without touching another
//     slab;
//   - kindCustomCut: lo is the index of the first of its count-1 boundary
//     points in cutPoints;
//   - kindDescCut: lo is the index of its first descriptor in cutDescs, and
//     the dimension bits hold the number of descriptors;
//   - leaves and partitions: both are 0.
//
// The artifact records the canonical canonNode instead: deriveServing packs
// it into this form and canonical widens it back, so the artifact schema
// does not depend on it.
type node struct {
	a, b     uint32
	lo, step uint32
}

// countBits is the width of a node's count; kind and dimension take the six
// bits of b above it. Any forest Load accepts has fewer than 2^26 nodes
// (18-byte records within the artifact limit) and fewer than 2^24 rules
// (96 bytes each), so every count it holds fits.
const (
	countBits = 26
	countMask = 1<<countBits - 1
	kindShift = countBits + 3
)

func (nd *node) kind() uint8   { return uint8(nd.b >> kindShift) }
func (nd *node) dim() uint8    { return uint8(nd.b>>countBits) & 7 }
func (nd *node) count() uint32 { return nd.b & countMask }

// packB packs a node's kind, dimension and count into its b word. It refuses
// a count the word cannot hold beside the other two.
func packB(kind, dim uint8, count uint32) (uint32, error) {
	if count > countMask {
		return 0, fmt.Errorf("count %d does not fit a node header (at most %d)", count, countMask)
	}
	return uint32(kind)<<kindShift | uint32(dim)<<countBits | count, nil
}

// canonNode is a node as the artifact records it: Compile emits it, Load
// decodes it, validate checks it and deriveServing packs it into a node.
type canonNode struct {
	kind uint8
	// ndims is the cut-dimension count of a kindCut node and the cut
	// dimension of a kindCustomCut one; 0 otherwise.
	ndims uint8
	// a is the first leaf-rule index (leaf) or first child node index; b is
	// the leaf-rule count (leaf) or child count. A kindCustomCut node has
	// b-1 boundary points.
	a, b uint32
	// cut is the first cut-descriptor index (kindCut) or the first boundary
	// point index (kindCustomCut); 0 otherwise.
	cut uint32
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
	// nodes is the serving node slab across all trees, children contiguous.
	nodes []node
	// canonNodes is the canonical node slab, as the artifact records it:
	// Compile and Load fill it, and deriveServing packs it into nodes and
	// drops it.
	canonNodes []canonNode
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
	// cutDescs holds the equal-cut geometry spans: every kindCut node's in
	// the canonical layout, only kindDescCut nodes' in the serving one (a
	// single-dimension cut whose step fits 32 bits keeps its geometry in its
	// node).
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
	// NodeBytes is the node slab, 16 bytes per node, and the root list, 4
	// bytes per root.
	NodeBytes int
	// LeafSpanBytes is the leaf-rule slab: per rule reference of each
	// distinct leaf list, however many leaves share it, 2 bytes for a table
	// of at most 65 536 rules and 4 above that.
	LeafSpanBytes int
	// CutBytes is the cut geometry kept outside the nodes: the descriptors
	// of multi-dimension cuts and of single-dimension cuts whose step does
	// not fit 32 bits (24 bytes each), and equi-dense boundary points (4
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
// artifact stores — into the serving layout: the packed rules, each distinct
// leaf list stored once in the narrowest rule index that fits, 32-bit
// boundary points, 16-byte nodes on a cache-line boundary with their cut
// geometry inline where it fits, only the descriptors of the cuts whose
// geometry does not, and the walk order of the roots. The served trees do
// not change: every leaf reads the same rule list and every cut dispatches
// to the same child. Compile and Load both end here, so a loaded artifact
// serves exactly what its compiled original did.
func (c *Classifier) deriveServing() {
	c.packed = rule.PackRules(c.rules)
	c.shareLeafSpans(spanHash())
	c.narrowCutPoints()
	c.packNodes()
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
	first := make(map[uint64]uint32, len(c.canonNodes))
	// owner[i] is the leaf whose copy leaf i reads: itself or an earlier one.
	owner := make([]uint32, len(c.canonNodes))
	distinct := 0
	for i := range c.canonNodes {
		nd := &c.canonNodes[i]
		if nd.kind != kindLeaf {
			continue
		}
		span := c.leafRules[nd.a : nd.a+nd.b]
		h := hash(span)
		if o, ok := first[h]; ok {
			if on := &c.canonNodes[o]; slices.Equal(c.leafRules[on.a:on.a+on.b], span) {
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
	for i := range c.canonNodes {
		nd := &c.canonNodes[i]
		if nd.kind != kindLeaf {
			continue
		}
		if o := owner[i]; o != uint32(i) {
			nd.a = c.canonNodes[o].a
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

// appendLeaf appends the rule list of the leaf span [a, a+n), as the lookups
// read it from the serving slab, to dst as 32-bit indices.
func (c *Classifier) appendLeaf(dst []uint32, a, n uint32) []uint32 {
	if c.leafRules16 == nil {
		return append(dst, c.leafRules[a:a+n]...)
	}
	for _, ri := range c.leafRules16[a : a+n] {
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

// packNodes packs the canonical nodes into the serving slab and drops them.
// A single-dimension cut whose step fits 32 bits keeps its geometry in its
// node and loses its descriptor; every other equal cut becomes a kindDescCut
// whose descriptors move into the serving c.cutDescs, which keeps nothing
// else. A zero step, or one of 2^32 or more such as a fan-out-1 cut over a
// whole address field, does not fit. validate has held every count below
// 2^26, every dimension to its range and every origin to its dimension's, so
// nothing is truncated. canonical rebuilds the canonical slabs.
func (c *Classifier) packNodes() {
	n := 0
	for i := range c.canonNodes {
		if kn := &c.canonNodes[i]; kn.kind == kindCut && !c.inlineCut(kn) {
			n += int(kn.ndims)
		}
	}
	descs := make([]cutDesc, 0, n)
	nodes := makeNodeSlab(len(c.canonNodes))
	for i := range c.canonNodes {
		kn, nd := &c.canonNodes[i], &nodes[i]
		kind, dim := kn.kind, uint8(0)
		nd.a = kn.a
		switch {
		case kn.kind == kindCustomCut:
			dim, nd.lo = kn.ndims, kn.cut
		case kn.kind == kindCut && c.inlineCut(kn):
			d := &c.cutDescs[kn.cut]
			dim, nd.lo, nd.step = d.dim, uint32(d.lo), uint32(d.step)
		case kn.kind == kindCut:
			kind, dim, nd.lo = kindDescCut, kn.ndims, uint32(len(descs))
			descs = append(descs, c.cutDescs[kn.cut:kn.cut+uint32(kn.ndims)]...)
		}
		nd.b, _ = packB(kind, dim, kn.b) // validate has refused a count that does not fit
	}
	c.nodes, c.cutDescs, c.canonNodes = nodes, descs, nil
}

// inlineCut reports whether the canonical cut kn dispatches from its node:
// it cuts one dimension, with a step from 1 to 2^32-1.
func (c *Classifier) inlineCut(kn *canonNode) bool {
	step := c.cutDescs[kn.cut].step
	return kn.ndims == 1 && step >= 1 && step <= math.MaxUint32
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
		switch nd.kind() {
		case kindLeaf:
			st.Leaves++
			st.LeafRuleRefs += int(nd.count())
			visits[i] = 1
		case kindCut, kindCustomCut, kindDescCut:
			maxG, maxV := 0, 0
			for j := uint32(0); j < nd.count(); j++ {
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
			k := int(nd.count())
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
	nodeBytes       = 16
	cutDescBytes    = 24
	packedRuleBytes = 32
)

// nodeLineAlign is the byte alignment of the node slab: one cache line, so
// a node never straddles a line boundary.
const nodeLineAlign = 64

// makeNodeSlab allocates a zeroed slab of n nodes on a 64-byte boundary. Go
// slice allocations only guarantee the element alignment (4 bytes here), so
// the slab is carved out of an over-allocated byte buffer instead; the
// interior pointer keeps the buffer alive and node contains no pointers, so
// the cast is GC-safe.
func makeNodeSlab(n int) []node {
	if n == 0 {
		return nil
	}
	buf := make([]byte, n*nodeBytes+nodeLineAlign-1)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % nodeLineAlign; rem != 0 {
		off = int(nodeLineAlign - rem)
	}
	return unsafe.Slice((*node)(unsafe.Pointer(&buf[off])), n)
}

// normStep maps a zero cut step to MaxUint64 so descCutChild can divide
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
