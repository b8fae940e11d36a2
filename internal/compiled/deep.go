package compiled

import (
	"math/rand"

	"neurocuts/internal/rule"
)

// This file reconstructs the header-space boxes of a compiled tree's deepest
// leaves and synthesizes packets inside them. The perf lab uses it to build
// adversarial worst-case-depth traces: every packet is steered down a
// maximum-length dependent-load chain, the workload where the batched walk's
// overlap of independent chains matters most (and where a rule-directed
// trace, which lands on popular mid-depth leaves, measures least).

// dimBox is one dimension's inclusive packet-value interval.
type dimBox struct{ lo, hi uint64 }

// maxDeepLeaves bounds how many distinct deepest leaves the synthesizer
// targets; beyond that the packets just round-robin the collected boxes.
const maxDeepLeaves = 64

// WorstCaseDepthPackets returns n packets steered to the classifier's
// deepest reachable leaves: the leaf set at maximum tree depth is located,
// each leaf's header-space box is reconstructed by replaying the cut
// decisions on its root path, and packets are drawn uniformly from those
// boxes (round-robin across leaves). Generation is deterministic in seed.
// Returns nil when the classifier has no nodes or n <= 0.
func (c *Classifier) WorstCaseDepthPackets(n int, seed int64) []rule.Packet {
	if n <= 0 || len(c.nodes) == 0 || len(c.roots) == 0 {
		return nil
	}
	parent, depth := c.walkDepths()

	// Gather leaves deepest-first until enough reachable boxes are in hand;
	// a leaf can be unreachable when a degenerate cut (box smaller than its
	// fan-out) leaves some children with empty value intervals.
	order := make([]int, 0, len(c.nodes))
	maxDepth := int32(0)
	for i := range c.nodes {
		if c.nodes[i].kind == kindLeaf && depth[i] >= 0 {
			order = append(order, i)
			if depth[i] > maxDepth {
				maxDepth = depth[i]
			}
		}
	}
	if len(order) == 0 {
		return nil
	}
	var boxes [][rule.NumDims]dimBox
	for d := maxDepth; d >= 0 && len(boxes) == 0; d-- {
		for _, li := range order {
			if depth[li] != d {
				continue
			}
			if box, ok := c.leafBox(li, parent); ok {
				boxes = append(boxes, box)
				if len(boxes) == maxDeepLeaves {
					break
				}
			}
		}
	}
	if len(boxes) == 0 {
		return nil
	}

	rng := rand.New(rand.NewSource(seed))
	out := make([]rule.Packet, n)
	for i := range out {
		box := &boxes[i%len(boxes)]
		pick := func(d rule.Dimension) uint64 {
			b := box[d]
			return b.lo + rng.Uint64()%(b.hi-b.lo+1)
		}
		out[i] = rule.Packet{
			SrcIP:   uint32(pick(rule.DimSrcIP)),
			DstIP:   uint32(pick(rule.DimDstIP)),
			SrcPort: uint16(pick(rule.DimSrcPort)),
			DstPort: uint16(pick(rule.DimDstPort)),
			Proto:   uint8(pick(rule.DimProto)),
		}
	}
	return out
}

// walkDepths BFSes the forest from the roots, recording each node's parent
// and depth (-1 for unreached slots). Every node has at most one parent by
// construction (child spans are disjoint), so a plain queue visits each node
// once.
func (c *Classifier) walkDepths() (parent, depth []int32) {
	parent = make([]int32, len(c.nodes))
	depth = make([]int32, len(c.nodes))
	for i := range parent {
		parent[i] = -1
		depth[i] = -1
	}
	queue := make([]uint32, 0, len(c.roots))
	for _, r := range c.roots {
		depth[r] = 0
		queue = append(queue, r)
	}
	for qi := 0; qi < len(queue); qi++ {
		i := queue[qi]
		nd := &c.nodes[i]
		if nd.kind == kindLeaf {
			continue
		}
		for j := uint32(0); j < nd.b; j++ {
			ch := nd.a + j
			parent[ch] = int32(i)
			depth[ch] = depth[i] + 1
			queue = append(queue, ch)
		}
	}
	return parent, depth
}

// leafBox reconstructs the packet-value box that routes a lookup to leaf li:
// walk the parent chain up to the root, then replay each internal node's
// decision for the child slot actually taken, narrowing the per-dimension
// intervals. ok=false means some interval emptied (the leaf is unreachable).
func (c *Classifier) leafBox(li int, parent []int32) (box [rule.NumDims]dimBox, ok bool) {
	var path []uint32
	for i := int32(li); i >= 0; i = parent[i] {
		path = append(path, uint32(i))
	}
	for _, d := range rule.Dimensions() {
		box[d] = dimBox{lo: 0, hi: d.MaxValue()}
	}
	// path is leaf..root; replay root..leaf.
	for pi := len(path) - 1; pi > 0; pi-- {
		nd := &c.nodes[path[pi]]
		slot := path[pi-1] - nd.a
		switch nd.kind {
		case kindPartition:
			// Children split the rules, not the header space.
		case kindCut:
			if nd.ndims == 1 {
				if !narrowCut(&box[nd.dim0], slot, nd.lo0, nd.step0, nd.b) {
					return box, false
				}
				continue
			}
			// Mixed-radix decode, least-significant descriptor last (the
			// encoder folds idx = idx*count + piece in descriptor order).
			var pieces [rule.NumDims]uint32
			rem := slot
			for k := int(nd.ndims) - 1; k >= 0; k-- {
				d := &c.cutDescs[nd.cut+uint32(k)]
				pieces[k] = rem % d.count
				rem /= d.count
			}
			for k := 0; k < int(nd.ndims); k++ {
				d := &c.cutDescs[nd.cut+uint32(k)]
				if !narrowCut(&box[d.dim], pieces[k], d.lo, normStep(d.step), d.count) {
					return box, false
				}
			}
		case kindCustomCut:
			pts := c.cutPoints[nd.cut : nd.cut+nd.b-1]
			b := &box[nd.ndims]
			if slot > 0 && pts[slot-1] > b.lo {
				b.lo = pts[slot-1]
			}
			if int(slot) < len(pts) {
				if pts[slot] == 0 {
					return box, false
				}
				if pts[slot]-1 < b.hi {
					b.hi = pts[slot] - 1
				}
			}
			if b.lo > b.hi {
				return box, false
			}
		}
	}
	return box, true
}

// narrowCut intersects one dimension's box with the value interval that an
// equal-sized cut routes to piece. The interval mirrors cutPiece exactly:
// piece 0 captures everything below lo+step (including v <= lo), the last
// piece absorbs the division remainder upward.
func narrowCut(b *dimBox, piece uint32, lo, step uint64, count uint32) bool {
	if piece > 0 {
		plo := lo + uint64(piece)*step
		if uint64(piece)*step/uint64(piece) != step || plo < lo {
			// Overflowed: this piece starts beyond the value space entirely
			// (step was normalized from a degenerate zero-step cut).
			return false
		}
		if plo > b.lo {
			b.lo = plo
		}
	}
	if piece < count-1 {
		// Exclusive upper bound lo + (piece+1)*step, saturating on overflow
		// (a saturated bound constrains nothing).
		hi := lo + uint64(piece+1)*step
		if uint64(piece+1)*step/uint64(piece+1) == step && hi > lo {
			if hi-1 < b.hi {
				b.hi = hi - 1
			}
		}
	}
	return b.lo <= b.hi
}
