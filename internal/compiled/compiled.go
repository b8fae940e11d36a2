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
//   - leaves reference rules as spans into one shared []uint32 slab of
//     indices into the classifier's rule list, so rule replication costs 4
//     bytes per reference. A tree node's rule list is the same thing —
//     positions in the list the tree was built over — so Compile copies
//     leaf lists out as they stand and only checks that the list is the
//     set's;
//   - cut geometry (origin, step, fan-out per dimension) is stored in flat
//     descriptor arrays, and rules are additionally packed into the 32-byte
//     match-only records of rule.Packed, so the leaf scan touches nothing
//     but small integers and spends one branch per rule.
//
// Lookup is iterative and allocation-free: a fixed-size index stack replaces
// recursion (partition nodes and multi-tree classifiers push work onto it),
// sized at compile time so the fallback heap path is never taken for
// real-world trees.
//
// The compiled form is also the repository's on-disk artifact: Save/Load
// give it a versioned, length-prefixed, checksummed binary encoding so a
// tree trained or built once can be served by later processes without
// rebuilding (see format.go).
package compiled

import (
	"fmt"
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
// equals the child count b. Multi-dimension cuts still read their full
// descriptor span. The boundary count of a kindCustomCut node is always its
// child count minus one, so it is not stored. Both facts keep the on-disk
// record (which still carries an explicit cutN) derivable, so the artifact
// schema is unchanged; Load reconstructs the inline fields (deriveInline).
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
	// cut is the first cut-descriptor index (kindCut) or the first boundary
	// point index (kindCustomCut).
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
	// leafRules is the shared slab of rule indices referenced by leaves.
	leafRules []uint32
	// cutDescs holds equal-cut geometry spans referenced by kindCut nodes.
	cutDescs []cutDesc
	// cutPoints holds boundary spans referenced by kindCustomCut nodes.
	cutPoints []uint64
	// roots indexes the root node of each compiled tree.
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
	// LeafRuleRefs is the total number of leaf rule references (RuleRefs /
	// Rules is the replication factor).
	LeafRuleRefs int
	// MaxStack is the worst-case traversal stack occupancy, computed at
	// compile time; lookups below lookupStackSize run allocation-free.
	MaxStack int
	// WorstCaseVisits is the worst-case number of node visits per lookup
	// (max over cut children, sum over partition children and roots).
	WorstCaseVisits int
	// MemoryBytes is the actual byte size of the serving arrays (nodes,
	// leaf-rule slab, cut geometry, packed rules), excluding the full
	// rule.Rule list kept for returning matches.
	MemoryBytes int
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
	st.MemoryBytes = len(c.nodes)*nodeBytes +
		len(c.leafRules)*4 +
		len(c.cutDescs)*cutDescBytes +
		len(c.cutPoints)*8 +
		len(c.packed)*packedRuleBytes +
		len(c.roots)*4
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
