package compiled

import "neurocuts/internal/rule"

// lookupStackSize is the traversal stack capacity kept on the goroutine
// stack. Classifiers whose compile-time MaxStack exceeds it (pathological
// partition nesting) fall back to a pooled heap stack; every tree this
// repository builds stays far below the bound.
const lookupStackSize = 128

// overflowStacks recycles traversal stacks for classifiers whose MaxStack
// exceeds lookupStackSize, so even pathological trees look up without a
// per-call allocation once the freelist is warm. A buffered channel rather
// than sync.Pool so the allocs/op guarantee also holds under the race
// detector (Pool randomly drops Puts there); see batchScratches.
var overflowStacks = make(chan *[]uint32, 16)

func getOverflowStack(minCap int) *[]uint32 {
	select {
	case sp := <-overflowStacks:
		if cap(*sp) < minCap {
			*sp = make([]uint32, 0, minCap)
		}
		return sp
	default:
		s := make([]uint32, 0, minCap)
		return &s
	}
}

func putOverflowStack(sp *[]uint32) {
	select {
	case overflowStacks <- sp:
	default:
	}
}

// Lookup returns the highest-priority rule matching the packet, or ok=false
// when no rule matches. It is allocation-free and safe for concurrent use.
func (c *Classifier) Lookup(p rule.Packet) (rule.Rule, bool) {
	idx := c.LookupIndex(p)
	if idx < 0 {
		return rule.Rule{}, false
	}
	return c.rules[idx], true
}

// LookupIndex returns the index into Rules() of the best match, or -1.
//
// The traversal is iterative: cut nodes descend directly (one arithmetic
// child computation per step), while partition nodes and the per-tree roots
// push pending node indices onto a small stack. Leaf rule spans ascend by
// rule index, so a leaf scan stops at the first match and whole leaves are
// skipped once a better match is already held.
func (c *Classifier) LookupIndex(p rule.Packet) int {
	var stackArr [lookupStackSize]uint32
	if c.stats.MaxStack <= lookupStackSize {
		return c.lookupIndex(p, stackArr[:0])
	}
	sp := getOverflowStack(c.stats.MaxStack)
	best := c.lookupIndex(p, (*sp)[:0])
	putOverflowStack(sp)
	return best
}

// cutPiece locates the piece index of value v under an equal-sized cut with
// origin lo, normalized step (see normStep) and the given fan-out. It is
// branch-free — the clamp and the v<=lo guard compile to conditional moves —
// and mirrors tree.childForPacket exactly: piece 0 when v <= lo, otherwise
// (v-lo)/step with the final piece absorbing the division remainder.
func cutPiece(v, lo, step uint64, count uint32) uint32 {
	q := uint32((v - lo) / step)
	if q > count-1 {
		q = count - 1
	}
	if v <= lo {
		q = 0
	}
	return q
}

// setFields widens a packet's fields to uint64, indexed by rule.Dimension, so
// a cut dispatch is one load instead of a field switch.
func setFields(v *[rule.NumDims]uint64, p rule.Packet) {
	v[rule.DimSrcIP] = uint64(p.SrcIP)
	v[rule.DimDstIP] = uint64(p.DstIP)
	v[rule.DimSrcPort] = uint64(p.SrcPort)
	v[rule.DimDstPort] = uint64(p.DstPort)
	v[rule.DimProto] = uint64(p.Proto)
}

// multiCutChild locates the child of a multi-dimension equal cut: the pieces
// of every cut dimension fold into one mixed-radix child offset.
func (c *Classifier) multiCutChild(nd *node, v *[rule.NumDims]uint64) uint32 {
	idx := uint32(0)
	for _, d := range c.cutDescs[nd.cut : nd.cut+uint32(nd.ndims)] {
		idx = idx*d.count + cutPiece(v[d.dim], d.lo, normStep(d.step), d.count)
	}
	return nd.a + idx
}

// countLE returns how many of the ascending pts are <= v; pts is not empty.
// It locates the child of an equi-dense cut: child offset = number of
// boundary points <= the packet's value. The binary search is branch-free —
// its trip count depends on len(pts) alone and each step is a conditional
// add — because which half a packet falls in is a coin toss no predictor
// wins. It inlines into both traversals.
func countLE(pts []uint64, v uint64) int {
	// The answer stays within [base, base+n].
	base := 0
	for n := len(pts); n > 1; n -= n >> 1 {
		base += n >> 1 & -b2i(pts[base+n>>1-1] <= v)
	}
	return base + b2i(pts[base] <= v)
}

// b2i is 1 for true and 0 for false; the compiler emits a flag-to-register
// move for it, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// lookupIndex is the traversal core behind LookupIndex; the caller supplies
// the (empty) stack so the fixed-size fast path and the pooled overflow path
// share one implementation.
func (c *Classifier) lookupIndex(p rule.Packet, stack []uint32) int {
	stack = append(stack, c.roots...)

	var v [rule.NumDims]uint64
	setFields(&v, p)
	k := p.Key()
	best := noMatch
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	descend:
		for {
			nd := &c.nodes[cur]
			switch nd.kind {
			case kindCut:
				if nd.ndims == 1 {
					// Single-dimension cut: the fan-out is the child count
					// and the descriptor is inline, so dispatch touches only
					// the node's own cache line.
					cur = nd.a + cutPiece(v[nd.dim0], nd.lo0, nd.step0, nd.b)
				} else {
					cur = c.multiCutChild(nd, &v)
				}

			case kindCustomCut:
				cur = nd.a + uint32(countLE(c.cutPoints[nd.cut:nd.cut+nd.b-1], v[nd.ndims]))

			case kindLeaf:
				best = c.scanLeaf(nd, k, best)
				break descend

			default: // kindPartition: every child holds part of the rules.
				for j := uint32(0); j < nd.b; j++ {
					stack = append(stack, nd.a+j)
				}
				break descend
			}
		}
	}
	return int(int32(best))
}

// noMatch is the running best before any rule matched. It sorts behind every
// rule index and converts to the -1 the lookups report.
const noMatch = ^uint32(0)

// scanLeaf returns the first rule of leaf nd that matches k and sits ahead of
// best in the rule list, or best when there is none. The span ascends by rule
// index, so nothing past the first rule at or behind best can improve on it.
// Every leaf scan of the package, scalar and batched, is this loop.
func (c *Classifier) scanLeaf(nd *node, k rule.PackedKey, best uint32) uint32 {
	packed := c.packed
	for _, ri := range c.leafRules[nd.a : nd.a+nd.b] {
		if ri >= best {
			break
		}
		if packed[ri].Matches(k) {
			return ri
		}
	}
	return best
}

// Note for update-overlay integrators: a deletion-masked variant of Lookup
// (skip tombstoned rules inside the leaf scans) is deliberately NOT
// provided. Tree construction prunes leaf rules that a higher-priority rule
// shadows inside the leaf's box, so a rule absent from the leaves can still
// be the best surviving match once its shadower is deleted — an in-tree
// mask would silently miss it. Callers that overlay deletions on a compiled
// base (internal/updater) must instead check the plain Lookup winner
// against their tombstone set and rescan on a hit.
