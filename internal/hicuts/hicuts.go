// Package hicuts implements HiCuts (Hierarchical Intelligent Cuttings,
// Gupta & McKeown, Hot Interconnects 1999), the pioneering decision-tree
// packet classification algorithm and the first baseline in the paper's
// evaluation.
//
// At every node HiCuts picks one dimension and cuts the node's region into
// equal-sized pieces along it. Two hand-tuned heuristics drive the choice:
//
//  1. The cut dimension is the one whose rules project onto the largest
//     number of distinct ranges (maximising the chance that rules separate).
//  2. The number of cuts is grown geometrically from an initial guess until
//     a space-measure budget is exceeded: sm(v) = Σ_children rules(child) +
//     number of children must stay below spfac · rules(v).
//
// Nodes with at most binth rules become leaves.
package hicuts

import (
	"fmt"

	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// The heuristic's fixed parameters, as in the paper's evaluation setting.
const (
	// spFac is the space-measure factor controlling how aggressively a node
	// may be cut. The original paper uses values between 1 and 8; 2 is the
	// common default.
	spFac = 2.0
	// maxCuts caps the fan-out of a single node.
	maxCuts = 64
	// maxDepth aborts pathological constructions.
	maxDepth = 256
)

// Config holds the HiCuts build parameters.
type Config struct {
	// Binth is the leaf threshold (maximum rules per leaf; 0 selects
	// tree.DefaultBinth).
	Binth int
}

// DefaultConfig returns the configuration used in the paper's evaluation
// setting.
func DefaultConfig() Config {
	return Config{Binth: tree.DefaultBinth}
}

// Build constructs a HiCuts decision tree for the classifier.
func Build(s *rule.Set, cfg Config) (*tree.Tree, error) {
	if cfg.Binth <= 0 {
		cfg.Binth = tree.DefaultBinth
	}
	t := tree.New(s, cfg.Binth)
	if err := tree.Grow(t, t.Root, maxDepth, func(n *tree.Node) ([]*tree.Node, error) {
		return cut(t, n)
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// cut expands n along the dimension chooseDimension picks, into the
// fan-out chooseCutCount grows; nil when no dimension can be cut.
func cut(t *tree.Tree, n *tree.Node) ([]*tree.Node, error) {
	dim, ok := chooseDimension(t, n)
	if !ok {
		return nil, nil
	}
	children, err := t.Cut(n, dim, chooseCutCount(t, n, dim))
	if err != nil {
		return nil, fmt.Errorf("hicuts: cutting node at depth %d: %w", n.Depth, err)
	}
	return children, nil
}

// chooseDimension returns the dimension with the most distinct rule ranges
// among those where the node's box can actually be subdivided. The boolean
// is false when no dimension can be cut.
func chooseDimension(t *tree.Tree, n *tree.Node) (rule.Dimension, bool) {
	best := rule.DimSrcIP
	bestCount := -1
	found := false
	for _, d := range rule.Dimensions() {
		if n.Box[d].Size() < 2 {
			continue
		}
		count := rule.DistinctRangeCount(t.Rules, n.Rules, d)
		if count > bestCount {
			best, bestCount, found = d, count, true
		}
	}
	return best, found
}

// chooseCutCount grows the fan-out geometrically from 4 (or the square root
// of the rule count, whichever is larger) while the space measure stays
// within the spfac budget.
func chooseCutCount(t *tree.Tree, n *tree.Node, dim rule.Dimension) int {
	budget := spFac * float64(n.NumRules())
	// Initial guess from the original paper: max(4, sqrt(#rules)).
	k := 4
	for k*k < n.NumRules() {
		k *= 2
	}
	if k < 4 {
		k = 4
	}
	if k > maxCuts {
		k = maxCuts
	}
	// Shrink if even the initial guess blows the budget, then try doubling.
	for k >= 2 && spaceMeasure(t, n, dim, k) > budget {
		k /= 2
	}
	if k < 2 {
		return 2
	}
	for k*2 <= maxCuts && spaceMeasure(t, n, dim, k*2) <= budget {
		k *= 2
	}
	return k
}

// spaceMeasure computes sm(v) for cutting node n along dim into k pieces:
// the total number of rule replicas across the children plus the number of
// children. It evaluates the cut without materialising child nodes, in one
// pass over the rules: a rule's range, clipped to the box, reaches every
// piece from the one holding its low end to the one holding its high end.
func spaceMeasure(t *tree.Tree, n *tree.Node, dim rule.Dimension, k int) float64 {
	box := n.Box[dim]
	size := box.Size()
	if uint64(k) > size {
		k = int(size)
	}
	if k < 2 {
		return float64(n.NumRules() + 1)
	}
	step := size / uint64(k)
	last := uint64(k - 1)
	// piece returns the index of the piece holding v: the pieces are step
	// values wide, except the last, which also takes the remainder.
	piece := func(v uint64) uint64 {
		return min((v-box.Lo)/step, last)
	}
	total := uint64(k)
	for _, ri := range n.Rules {
		if r, ok := t.Rules[ri].Ranges[dim].Intersect(box); ok {
			total += piece(r.Hi) - piece(r.Lo) + 1
		}
	}
	return float64(total)
}
