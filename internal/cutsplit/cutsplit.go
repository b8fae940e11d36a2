// Package cutsplit implements CutSplit (Li, Li, Li & Xie, INFOCOM 2018), the
// fourth baseline in the paper's evaluation and the strongest hand-tuned
// algorithm on memory footprint.
//
// CutSplit combines the strengths of equal-sized cutting (fast, works well
// high in the tree where rules are spread out) and equal-dense splitting
// (no rule replication, works well low in the tree where rules overlap):
//
//  1. Rules are partitioned by which of the two IP dimensions are "small"
//     (prefix longer than a threshold): both small, only source small, only
//     destination small, or neither. Each subset gets its own tree, so wide
//     rules never force replication onto narrow ones.
//  2. Each tree is built with FiCuts — fixed equal-sized cuts in the
//     subset's small dimensions — until nodes shrink below a threshold.
//  3. Small nodes are finished with HyperSplit-style binary equal-dense
//     splits, which place one boundary at the median rule endpoint.
package cutsplit

import (
	"fmt"

	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// The heuristic's fixed parameters.
const (
	// smallPrefixLen is the minimum prefix length for an IP field to count
	// as "small" (the original paper uses 16).
	smallPrefixLen = 16
	// maxCuts caps the fan-out of one FiCuts step.
	maxCuts = 32
	// maxDepth aborts pathological constructions.
	maxDepth = 256
)

// Config holds the CutSplit build parameters.
type Config struct {
	// Binth is the leaf threshold (0 selects tree.DefaultBinth).
	Binth int
}

// DefaultConfig returns the standard CutSplit configuration.
func DefaultConfig() Config {
	return Config{Binth: tree.DefaultBinth}
}

// Classifier is the multi-tree classifier CutSplit produces.
type Classifier struct {
	// Trees are the per-subset decision trees.
	Trees []*tree.Tree
	// Labels names each subset ("sa-da", "sa", "da", "big").
	Labels []string
}

// Build constructs the CutSplit multi-tree classifier.
func Build(s *rule.Set, cfg Config) (*Classifier, error) {
	if cfg.Binth <= 0 {
		cfg.Binth = tree.DefaultBinth
	}
	threshold := preCutThreshold(cfg.Binth)
	groups, labels, dims := partitionRules(s.Rules())
	c := &Classifier{}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		t := tree.NewFromRules(s.Rules(), g, cfg.Binth)
		if err := tree.Grow(t, t.Root, maxDepth, func(n *tree.Node) ([]*tree.Node, error) {
			return cut(t, n, dims[i], threshold)
		}); err != nil {
			return nil, fmt.Errorf("cutsplit: building tree %q: %w", labels[i], err)
		}
		c.Trees = append(c.Trees, t)
		c.Labels = append(c.Labels, labels[i])
	}
	return c, nil
}

// preCutThreshold is the node size above which construction cuts with
// FiCuts and at or below which it splits with HyperSplit: 64, or four leaves'
// worth of rules when the leaf threshold is 64 or more.
func preCutThreshold(binth int) int {
	if binth >= 64 {
		return 4 * binth
	}
	return 64
}

// isSmall reports whether the rule's range in an IP dimension is at least as
// specific as a /smallPrefixLen prefix.
func isSmall(r rule.Rule, d rule.Dimension) bool {
	maxSize := uint64(1) << (d.Bits() - smallPrefixLen)
	return r.Ranges[d].Size() <= maxSize
}

// partitionRules splits rules into the CutSplit subsets — each a list of
// ascending positions in rules — and records, per subset, the dimensions
// FiCuts should pre-cut.
func partitionRules(rules []rule.Rule) ([][]int32, []string, [][]rule.Dimension) {
	var saDA, sa, da, big []int32
	for i, r := range rules {
		ri := int32(i)
		srcSmall := isSmall(r, rule.DimSrcIP)
		dstSmall := isSmall(r, rule.DimDstIP)
		switch {
		case srcSmall && dstSmall:
			saDA = append(saDA, ri)
		case srcSmall:
			sa = append(sa, ri)
		case dstSmall:
			da = append(da, ri)
		default:
			big = append(big, ri)
		}
	}
	groups := [][]int32{saDA, sa, da, big}
	labels := []string{"sa-da", "sa", "da", "big"}
	dims := [][]rule.Dimension{
		{rule.DimSrcIP, rule.DimDstIP},
		{rule.DimSrcIP},
		{rule.DimDstIP},
		nil,
	}
	return groups, labels, dims
}

// cut expands a node: FiCuts equal-sized cuts in the subset's small
// dimensions while the node is large, HyperSplit binary splits afterwards.
func cut(t *tree.Tree, n *tree.Node, preCutDims []rule.Dimension, threshold int) ([]*tree.Node, error) {
	if len(preCutDims) > 0 && n.NumRules() > threshold {
		return fiCut(t, n, preCutDims)
	}
	return hyperSplit(t, n)
}

// fiCut performs one fixed equal-sized cut step across the subset's small
// dimensions (cutting each into the same power-of-two fan-out, bounded by
// maxCuts and the number of rules).
func fiCut(t *tree.Tree, n *tree.Node, dims []rule.Dimension) ([]*tree.Node, error) {
	var usable []rule.Dimension
	for _, d := range dims {
		if n.Box[d].Size() >= 2 {
			usable = append(usable, d)
		}
	}
	if len(usable) == 0 {
		return hyperSplit(t, n)
	}
	k := 4
	for k*k*len(usable) < n.NumRules() && k*2 <= maxCuts {
		k *= 2
	}
	counts := make([]int, len(usable))
	for i := range counts {
		counts[i] = k
	}
	children, err := t.CutMulti(n, usable, counts)
	if err != nil {
		return nil, fmt.Errorf("cutsplit: FiCuts at depth %d: %w", n.Depth, err)
	}
	return children, nil
}

// hyperSplit performs one binary equal-dense split: it picks the dimension
// with the most distinct endpoints and splits at the median endpoint, so the
// two children receive balanced rule counts without replication of rules
// whose ranges do not straddle the boundary.
func hyperSplit(t *tree.Tree, n *tree.Node) ([]*tree.Node, error) {
	bestDim := rule.DimSrcIP
	var bestPoint uint64
	bestScore := -1
	var points []uint64
	for _, d := range rule.Dimensions() {
		if n.Box[d].Size() < 2 {
			continue
		}
		points = t.Boundaries(points[:0], n, d)
		if len(points) == 0 {
			continue
		}
		score := len(points)
		if score > bestScore {
			bestScore = score
			bestDim = d
			bestPoint = points[len(points)/2]
		}
	}
	if bestScore < 1 {
		return nil, nil
	}
	children, err := t.CutAtPoints(n, bestDim, []uint64{bestPoint})
	if err != nil {
		return nil, fmt.Errorf("cutsplit: HyperSplit at depth %d: %w", n.Depth, err)
	}
	return children, nil
}
