package tree

import "neurocuts/internal/rule"

// Classify walks the tree and returns the highest-priority rule matching the
// packet, plus false when no rule matches (which cannot happen when the
// classifier carries a default rule). The walk also works on partially built
// trees, where oversized leaves simply fall back to linear search.
func (t *Tree) Classify(p rule.Packet) (rule.Rule, bool) {
	r, _, ok := t.ClassifyWithDepth(p)
	return r, ok
}

// ClassifyWithDepth is Classify but also reports the number of node visits
// the lookup performed (the classification-time metric for a single packet:
// memory accesses along the path, summed across partition sub-lookups).
func (t *Tree) ClassifyWithDepth(p rule.Packet) (rule.Rule, int, bool) {
	best, visits := t.classifyNode(t.Root, p)
	if best < 0 {
		return rule.Rule{}, visits, false
	}
	return t.Rules[best], visits, true
}

// classifyNode returns the position in the tree's rule list of the best
// matching rule in the subtree rooted at n (or -1) and the number of nodes
// visited.
func (t *Tree) classifyNode(n *Node, p rule.Packet) (int32, int) {
	visits := 1
	switch {
	case n.IsLeaf():
		for _, ri := range n.Rules {
			if t.Rules[ri].Matches(p) {
				return ri, visits
			}
		}
		return -1, visits

	case n.Kind == KindCut:
		child := n.childForPacket(p)
		if child == nil {
			return -1, visits
		}
		best, v := t.classifyNode(child, p)
		return best, visits + v

	default: // KindPartition: the packet must be checked against every child.
		best := int32(-1)
		for _, c := range n.Children {
			ri, v := t.classifyNode(c, p)
			visits += v
			if ri >= 0 && (best < 0 || ri < best) {
				best = ri
			}
		}
		return best, visits
	}
}

// childForPacket locates the cut child whose box contains the packet.
// Children of a cut node tile the parent box, so exactly one child matches;
// nil is only possible for packets outside the node's box.
func (n *Node) childForPacket(p rule.Packet) *Node {
	if n.CustomCut {
		return n.scanChildForPacket(p)
	}
	// Compute the child index arithmetically from the cut structure instead
	// of scanning: children are laid out in mixed-radix order over CutDims.
	idx := 0
	for i, d := range n.CutDims {
		pieceCount := n.CutCounts[i]
		dimRange := n.Box[d]
		v := p.Field(d)
		if !dimRange.Contains(v) {
			return nil
		}
		step := dimRange.Size() / uint64(pieceCount)
		var piece int
		if step == 0 {
			piece = 0
		} else {
			piece = int((v - dimRange.Lo) / step)
		}
		if piece >= pieceCount {
			piece = pieceCount - 1
		}
		idx = idx*pieceCount + piece
	}
	if idx < 0 || idx >= len(n.Children) {
		return nil
	}
	child := n.Children[idx]
	// The arithmetic index matches splitRange's equal-step layout except for
	// the final remainder piece; verify and fall back to a scan if the value
	// landed on a boundary handled differently.
	for _, d := range n.CutDims {
		if !child.Box[d].Contains(p.Field(d)) {
			return n.scanChildForPacket(p)
		}
	}
	return child
}

func (n *Node) scanChildForPacket(p rule.Packet) *Node {
	for _, c := range n.Children {
		inside := true
		for _, d := range n.CutDims {
			if !c.Box[d].Contains(p.Field(d)) {
				inside = false
				break
			}
		}
		if inside {
			return c
		}
	}
	return nil
}
