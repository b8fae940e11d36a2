// Package tree implements the decision-tree data structure shared by every
// packet classification algorithm in this repository: the hand-tuned
// baselines (HiCuts, HyperCuts, EffiCuts, CutSplit) and NeuroCuts itself.
//
// A tree partitions the 5-dimensional header space. Internal nodes either
// cut their box along one or more dimensions into equal-sized sub-boxes
// (each child owns one sub-box and the rules intersecting it) or partition
// their rule list into disjoint subsets (each child owns the same box but a
// subset of the rules). Leaves hold at most `binth` rules, which are
// searched linearly. Using one engine for all algorithms mirrors the paper's
// methodology and guarantees that depth and memory metrics are computed
// identically for learned and hand-crafted trees.
//
// A tree holds the classifier's rule list once (Tree.Rules, shared with the
// classifier, never copied) and every node's rule list is a []int32 of
// positions in it, ascending, which is priority order. Rule replication —
// what drives the paper's memory metric up — therefore costs four bytes per
// reference while a tree is being built, as it does in the compiled form,
// and internal/compiled copies leaf lists out as they stand.
package tree

import (
	"fmt"

	"neurocuts/internal/rule"
)

// NodeKind distinguishes how an internal node was expanded.
type NodeKind int

// Node kinds.
const (
	// KindLeaf is a terminal node holding at most binth rules.
	KindLeaf NodeKind = iota
	// KindCut is an internal node produced by an equal-sized cut along one
	// or more dimensions.
	KindCut
	// KindPartition is an internal node whose children split the node's
	// rules into disjoint subsets over the same box.
	KindPartition
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindLeaf:
		return "leaf"
	case KindCut:
		return "cut"
	case KindPartition:
		return "partition"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is a decision-tree node.
type Node struct {
	// Box is the region of header space the node is responsible for.
	Box [rule.NumDims]rule.Range
	// Rules are the rules intersecting Box, as ascending positions in the
	// tree's rule list (Tree.Rules): ascending is priority order.
	Rules []int32
	// Kind says whether the node is a leaf or how it was expanded.
	Kind NodeKind
	// Children are the node's children (empty for leaves).
	Children []*Node
	// Depth is the node's distance from the root (root = 0).
	Depth int

	// CutDims and CutCounts describe a KindCut expansion: the dimensions cut
	// and the number of equal-sized pieces per dimension. len(CutDims) == 1
	// for single-dimension algorithms; HyperCuts may cut several at once.
	CutDims   []rule.Dimension
	CutCounts []int
	// CustomCut marks a cut whose pieces are not equal-sized (produced by
	// CutAtPoints). Traffic accounting (childForPacket) then locates the
	// child by scanning child boxes instead of index arithmetic; the
	// compiled form recovers the boundaries from the child boxes.
	CustomCut bool

	// PartitionLabel optionally names the partition a child represents (used
	// by EffiCuts-style category partitioning and for inspection).
	PartitionLabel string
	// PartitionGroup is 1 + the index, in the Partition call that created
	// this node, of the rule group it holds; 0 for every other node.
	PartitionGroup int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// NumRules returns the number of rules stored at the node.
func (n *Node) NumRules() int { return len(n.Rules) }

// Tree is a decision tree over a classifier.
type Tree struct {
	// Root is the tree's root node; its box is the full header space.
	Root *Node
	// Rules is the rule list node rule lists index: the classifier's own
	// slice, shared and never modified in place.
	Rules []rule.Rule
	// Binth is the leaf threshold: nodes with at most Binth rules are
	// terminal.
	Binth int
	// RuleCount is the number of rules in the original classifier, used as
	// the denominator for bytes-per-rule.
	RuleCount int
}

// DefaultBinth is the leaf threshold used throughout the paper's evaluation
// (both NeuroCuts and the baselines stop splitting nodes with at most this
// many rules).
const DefaultBinth = 16

// New creates a tree whose root covers the full header space and holds every
// rule of the classifier. binth <= 0 selects DefaultBinth.
func New(s *rule.Set, binth int) *Tree {
	return NewFromRules(s.Rules(), AllRules(s.Len()), binth)
}

// AllRules returns the positions 0..n-1: the rule list of a node that holds
// a whole n-rule classifier.
func AllRules(n int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// NewFromRules creates a tree over the classifier's rule list whose root
// holds the rules at positions members (ascending) — the whole classifier
// for a single tree, one rule group for a tree of a multi-tree classifier.
// The root keeps the members slice; len(members) is the bytes-per-rule
// denominator.
func NewFromRules(rules []rule.Rule, members []int32, binth int) *Tree {
	if binth <= 0 {
		binth = DefaultBinth
	}
	root := &Node{Kind: KindLeaf, Rules: members}
	for _, d := range rule.Dimensions() {
		root.Box[d] = rule.FullRange(d)
	}
	return &Tree{Root: root, Rules: rules, Binth: binth, RuleCount: len(members)}
}

// IsTerminal reports whether the node needs no further expansion under the
// tree's leaf threshold.
func (t *Tree) IsTerminal(n *Node) bool {
	return n.NumRules() <= t.Binth
}

// Walk visits every node in depth-first pre-order, calling fn. Walking stops
// early if fn returns false.
func (t *Tree) Walk(fn func(*Node) bool) {
	var rec func(n *Node) bool
	rec = func(n *Node) bool {
		if !fn(n) {
			return false
		}
		for _, c := range n.Children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

// LevelSizes returns the number of nodes at each depth level, index = depth.
// This is the data plotted in Figure 5 of the paper.
func (t *Tree) LevelSizes() []int {
	var out []int
	t.Walk(func(n *Node) bool {
		for len(out) <= n.Depth {
			out = append(out, 0)
		}
		out[n.Depth]++
		return true
	})
	return out
}

// CutDimensionHistogram returns, per depth level, how many cut nodes cut
// each dimension (the coloured distribution in Figure 5).
func (t *Tree) CutDimensionHistogram() []map[rule.Dimension]int {
	var out []map[rule.Dimension]int
	t.Walk(func(n *Node) bool {
		if n.Kind != KindCut {
			return true
		}
		for len(out) <= n.Depth {
			out = append(out, map[rule.Dimension]int{})
		}
		for _, d := range n.CutDims {
			out[n.Depth][d]++
		}
		return true
	})
	return out
}
