// Package efficuts implements EffiCuts (Vamanan, Voskuilen & Vijaykumar,
// SIGCOMM 2010), the third baseline in the paper's evaluation and the source
// of the "EffiCuts partition" action NeuroCuts can learn to use.
//
// EffiCuts attacks rule replication with four heuristics; this package
// implements the two that determine the algorithm's structure and results:
//
//   - Separable trees: rules are first partitioned by their "largeness"
//     pattern — for every dimension a rule is either large (it covers more
//     than half of the dimension's space) or small. Rules sharing a pattern
//     are separable and go into the same category; each category gets its
//     own decision tree, which eliminates the replication caused by mixing
//     wide and narrow rules.
//   - Tree merging: categories whose patterns differ only in dimensions
//     where at least one side is large are merged, bounding the number of
//     trees (and hence the classification-time cost of visiting all of
//     them).
//
// Inside each tree EffiCuts uses equi-dense cuts — cut boundaries placed at
// the rule-range endpoints so that children receive balanced rule counts —
// rather than HiCuts' equal-sized cuts.
package efficuts

import (
	"fmt"
	"slices"
	"sort"

	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// LargenessFraction is the coverage threshold above which a rule counts as
// "large" in a dimension (0.5 in the original paper).
const LargenessFraction = 0.5

// The heuristic's fixed parameters.
const (
	// maxCuts caps the fan-out of an equi-dense cut.
	maxCuts = 16
	// maxDepth aborts pathological constructions.
	maxDepth = 256
)

// Config holds the EffiCuts build parameters.
type Config struct {
	// Binth is the leaf threshold (0 selects tree.DefaultBinth).
	Binth int
}

// DefaultConfig returns the standard EffiCuts configuration.
func DefaultConfig() Config {
	return Config{Binth: tree.DefaultBinth}
}

// Classifier is the multi-tree classifier EffiCuts produces: one decision
// tree per (possibly merged) rule category. A packet is classified by
// looking it up in every tree and taking the highest-priority match.
type Classifier struct {
	// Trees are the per-category decision trees.
	Trees []*tree.Tree
	// Labels names each tree's category (for inspection).
	Labels []string
}

// Build constructs the EffiCuts multi-tree classifier.
func Build(s *rule.Set, cfg Config) (*Classifier, error) {
	if cfg.Binth <= 0 {
		cfg.Binth = tree.DefaultBinth
	}
	groups, labels := PartitionRules(s.Rules(), tree.AllRules(s.Len()))
	c := &Classifier{}
	for i, g := range groups {
		t := tree.NewFromRules(s.Rules(), g, cfg.Binth)
		if err := tree.Grow(t, t.Root, maxDepth, func(n *tree.Node) ([]*tree.Node, error) {
			return cut(t, n)
		}); err != nil {
			return nil, fmt.Errorf("efficuts: building tree %q: %w", labels[i], err)
		}
		c.Trees = append(c.Trees, t)
		c.Labels = append(c.Labels, labels[i])
	}
	return c, nil
}

// Pattern is a rule's largeness pattern: Pattern[d] is true when the rule is
// large in dimension d.
type Pattern [rule.NumDims]bool

// String renders the pattern as a string of L/S characters in dimension
// order.
func (p Pattern) String() string {
	out := make([]byte, rule.NumDims)
	for i := range out {
		if p[i] {
			out[i] = 'L'
		} else {
			out[i] = 'S'
		}
	}
	return string(out)
}

// PatternOf computes a rule's largeness pattern.
func PatternOf(r rule.Rule) Pattern {
	var p Pattern
	for _, d := range rule.Dimensions() {
		p[d] = r.Coverage(d) > LargenessFraction
	}
	return p
}

// MaxMergedTrees is the target number of trees after tree merging; merging
// stops once the category count drops to this bound (or no compatible pair
// remains).
const MaxMergedTrees = 8

// PartitionRules splits the rules at positions members of rules (a node's
// rule list, or tree.AllRules for a whole classifier) into separable
// categories by largeness pattern, then merges categories. It returns
// the rule groups (each a list of ascending positions in rules, which is
// priority order) and a label per group. The groups are returned in a
// deterministic order (by label).
//
// Tree merging follows EffiCuts' compatibility rule: two categories may only
// merge when their largeness patterns differ in exactly one dimension, so
// that the merged category stays separable in every other dimension and the
// extra replication introduced by the merge is bounded. Merging repeatedly
// joins the smallest compatible pair until at most MaxMergedTrees categories
// remain or no compatible pair exists.
func PartitionRules(rules []rule.Rule, members []int32) ([][]int32, []string) {
	byPattern := map[Pattern][]int32{}
	for _, ri := range members {
		p := PatternOf(rules[ri])
		byPattern[p] = append(byPattern[p], ri)
	}
	type category struct {
		pattern Pattern
		rules   []int32
	}
	var cats []category
	for p, rs := range byPattern {
		cats = append(cats, category{pattern: p, rules: rs})
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i].pattern.String() < cats[j].pattern.String() })

	for len(cats) > MaxMergedTrees {
		bestI, bestJ := -1, -1
		bestSize := 0
		for i := 0; i < len(cats); i++ {
			for j := i + 1; j < len(cats); j++ {
				if patternDistance(cats[i].pattern, cats[j].pattern) != 1 {
					continue
				}
				size := len(cats[i].rules) + len(cats[j].rules)
				if bestI < 0 || size < bestSize {
					bestI, bestJ, bestSize = i, j, size
				}
			}
		}
		if bestI < 0 {
			break
		}
		merged := category{
			pattern: unionPattern(cats[bestI].pattern, cats[bestJ].pattern),
			rules:   append(append([]int32(nil), cats[bestI].rules...), cats[bestJ].rules...),
		}
		// Remove j first (larger index), then i, then append the merge.
		cats = append(cats[:bestJ], cats[bestJ+1:]...)
		cats = append(cats[:bestI], cats[bestI+1:]...)
		cats = append(cats, merged)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i].pattern.String() < cats[j].pattern.String() })

	out := make([][]int32, 0, len(cats))
	labels := make([]string, 0, len(cats))
	for _, c := range cats {
		slices.Sort(c.rules) // a merged category is two ascending runs
		out = append(out, c.rules)
		labels = append(labels, c.pattern.String())
	}
	return out, labels
}

// patternDistance counts the dimensions in which two patterns differ.
func patternDistance(a, b Pattern) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// unionPattern returns the element-wise OR of two patterns (large wherever
// either input is large).
func unionPattern(a, b Pattern) Pattern {
	var out Pattern
	for i := range a {
		out[i] = a[i] || b[i]
	}
	return out
}

// cut expands a node of a category tree along the dimension
// chooseDimension picks: an equi-dense cut, or a binary equal one when
// equi-dense cuts find no boundary. nil when no dimension can be cut.
func cut(t *tree.Tree, n *tree.Node) ([]*tree.Node, error) {
	dim, ok := chooseDimension(t, n)
	if !ok {
		return nil, nil
	}
	var children []*tree.Node
	var err error
	if points := equiDensePoints(t, n, dim); len(points) > 0 {
		children, err = t.CutAtPoints(n, dim, points)
	} else {
		children, err = t.Cut(n, dim, 2)
	}
	if err != nil {
		return nil, fmt.Errorf("cut at depth %d: %w", n.Depth, err)
	}
	return children, nil
}

// chooseDimension picks the cuttable dimension with the most distinct
// range endpoints inside the node's box.
func chooseDimension(t *tree.Tree, n *tree.Node) (rule.Dimension, bool) {
	best := rule.DimSrcIP
	bestCount := -1
	found := false
	for _, d := range rule.Dimensions() {
		if n.Box[d].Size() < 2 {
			continue
		}
		count := rule.DistinctValueCount(t.Rules, n.Rules, d, n.Box[d])
		if count > bestCount {
			best, bestCount, found = d, count, true
		}
	}
	return best, found && bestCount >= 2
}

// equiDensePoints returns up to maxCuts-1 cut boundaries for dimension dim
// placed at rule-range endpoints so that each child receives a roughly equal
// share of the node's rules.
func equiDensePoints(t *tree.Tree, n *tree.Node, dim rule.Dimension) []uint64 {
	cands := t.Boundaries(nil, n, dim)
	const want = maxCuts - 1
	if len(cands) <= want {
		return cands
	}
	// Thin the candidate list evenly so the fan-out stays within maxCuts.
	out := make([]uint64, 0, want)
	for i := 1; i <= want; i++ {
		v := cands[i*len(cands)/(want+1)] // i <= want: always in range
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
