package tree

import "neurocuts/internal/rule"

// This file implements traffic-aware lookup-cost accounting: instead of the
// worst-case classification time of Equation 1, the cost of a (sub)tree is
// measured as the average number of node visits over a given packet trace.
// The paper's conclusion proposes exactly this extension ("by considering a
// specific traffic pattern, NeuroCuts can be extended to other objectives
// such as average classification time"); internal/env exposes it through
// Config.TrafficTrace.

// TrafficStats holds, for every node reached by at least one packet of a
// trace, how many packets reached it and how many node visits those packets
// spent inside the node's subtree.
type TrafficStats struct {
	// Count[n] is the number of trace packets whose lookup visits n.
	Count map[*Node]int
	// Visits[n] is the total number of node visits those packets spend in
	// the subtree rooted at n (including n itself).
	Visits map[*Node]int
	// Packets is the trace length.
	Packets int
}

// ComputeTrafficStats classifies every packet of the trace once and
// accumulates per-node visit statistics.
func (t *Tree) ComputeTrafficStats(packets []rule.Packet) *TrafficStats {
	s := &TrafficStats{
		Count:   make(map[*Node]int),
		Visits:  make(map[*Node]int),
		Packets: len(packets),
	}
	for _, p := range packets {
		t.accumulateVisits(t.Root, p, s)
	}
	return s
}

// accumulateVisits returns the number of node visits a lookup of p spends in
// the subtree rooted at n, recording per-node statistics along the way when
// s is not nil. It is the package's one per-packet descent; serving lookups
// run on the compiled form (internal/compiled).
func (t *Tree) accumulateVisits(n *Node, p rule.Packet, s *TrafficStats) int {
	visits := 1
	switch {
	case n.IsLeaf():
		// Leaf cost is one visit (the rule scan is bounded by binth).
	case n.Kind == KindCut:
		if child := n.childForPacket(p); child != nil {
			visits += t.accumulateVisits(child, p, s)
		}
	default: // KindPartition: every child is consulted.
		for _, c := range n.Children {
			visits += t.accumulateVisits(c, p, s)
		}
	}
	if s != nil {
		s.Count[n]++
		s.Visits[n] += visits
	}
	return visits
}

// AverageTime returns the mean number of visits spent in n's subtree by the
// packets that reached n, and whether any packet reached it at all.
func (s *TrafficStats) AverageTime(n *Node) (float64, bool) {
	c := s.Count[n]
	if c == 0 {
		return 0, false
	}
	return float64(s.Visits[n]) / float64(c), true
}

// AverageLookupTime returns the mean number of node visits per lookup over
// the trace (the traffic-aware analogue of Metrics.ClassificationTime).
func (t *Tree) AverageLookupTime(packets []rule.Packet) float64 {
	if len(packets) == 0 {
		return 0
	}
	total := 0
	for _, p := range packets {
		total += t.accumulateVisits(t.Root, p, nil)
	}
	return float64(total) / float64(len(packets))
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
