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

// Config holds the CutSplit tuning knobs.
type Config struct {
	// Binth is the leaf threshold.
	Binth int
	// SmallPrefixLen is the minimum prefix length for an IP field to count
	// as "small" (the original paper uses 16).
	SmallPrefixLen uint
	// PreCutThreshold is the node size below which construction switches
	// from FiCuts equal-sized cutting to HyperSplit splitting.
	PreCutThreshold int
	// MaxCuts caps the fan-out of one FiCuts step.
	MaxCuts int
	// MaxDepth aborts pathological constructions; 0 means no limit.
	MaxDepth int
}

// DefaultConfig returns the standard CutSplit configuration.
func DefaultConfig() Config {
	return Config{
		Binth:           tree.DefaultBinth,
		SmallPrefixLen:  16,
		PreCutThreshold: 64,
		MaxCuts:         32,
		MaxDepth:        256,
	}
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
	if cfg.SmallPrefixLen == 0 {
		cfg.SmallPrefixLen = 16
	}
	if cfg.PreCutThreshold <= cfg.Binth {
		cfg.PreCutThreshold = cfg.Binth * 4
	}
	if cfg.MaxCuts < 2 {
		cfg.MaxCuts = 32
	}
	groups, labels, dims := partitionRules(s.Rules(), cfg.SmallPrefixLen)
	c := &Classifier{}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		t := tree.NewFromRules(s.Rules(), g, cfg.Binth)
		if err := tree.Grow(t, t.Root, cfg.MaxDepth, func(n *tree.Node) ([]*tree.Node, error) {
			return cut(t, n, dims[i], cfg)
		}); err != nil {
			return nil, fmt.Errorf("cutsplit: building tree %q: %w", labels[i], err)
		}
		c.Trees = append(c.Trees, t)
		c.Labels = append(c.Labels, labels[i])
	}
	return c, nil
}

// isSmall reports whether the rule's range in an IP dimension is at least as
// specific as a /smallLen prefix.
func isSmall(r rule.Rule, d rule.Dimension, smallLen uint) bool {
	maxSize := uint64(1) << (d.Bits() - smallLen)
	return r.Ranges[d].Size() <= maxSize
}

// partitionRules splits rules into the CutSplit subsets — each a list of
// ascending positions in rules — and records, per subset, the dimensions
// FiCuts should pre-cut.
func partitionRules(rules []rule.Rule, smallLen uint) ([][]int32, []string, [][]rule.Dimension) {
	var saDA, sa, da, big []int32
	for i, r := range rules {
		ri := int32(i)
		srcSmall := isSmall(r, rule.DimSrcIP, smallLen)
		dstSmall := isSmall(r, rule.DimDstIP, smallLen)
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
func cut(t *tree.Tree, n *tree.Node, preCutDims []rule.Dimension, cfg Config) ([]*tree.Node, error) {
	if len(preCutDims) > 0 && n.NumRules() > cfg.PreCutThreshold {
		return fiCut(t, n, preCutDims, cfg)
	}
	return hyperSplit(t, n)
}

// fiCut performs one fixed equal-sized cut step across the subset's small
// dimensions (cutting each into the same power-of-two fan-out, bounded by
// MaxCuts and the number of rules).
func fiCut(t *tree.Tree, n *tree.Node, dims []rule.Dimension, cfg Config) ([]*tree.Node, error) {
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
	for k*k*len(usable) < n.NumRules() && k*2 <= cfg.MaxCuts {
		k *= 2
	}
	if k > cfg.MaxCuts {
		k = cfg.MaxCuts
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
