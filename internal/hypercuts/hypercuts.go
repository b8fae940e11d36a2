// Package hypercuts implements HyperCuts (Singh, Baboescu, Varghese & Wang,
// SIGCOMM 2003), the second baseline in the paper's evaluation.
//
// HyperCuts generalises HiCuts by cutting a node along several dimensions at
// once, which separates rules that differ in different fields without paying
// one tree level per field. The dimension set is chosen as every dimension
// whose distinct-range count is at least the mean across cuttable
// dimensions; the per-dimension fan-outs are grown under a shared space
// budget. HyperCuts also shrinks each node's box to the bounding box of its
// rules ("region compaction") before cutting, which avoids wasting cuts on
// empty space.
package hypercuts

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// The heuristic's fixed parameters.
const (
	// spFac is the space-measure factor bounding the total fan-out of a
	// node: the number of children may not exceed spFac * sqrt(rules).
	spFac = 4.0
	// maxCutsPerDim caps the per-dimension fan-out.
	maxCutsPerDim = 16
	// maxDepth aborts pathological constructions.
	maxDepth = 256
)

// Config holds the HyperCuts build parameters.
type Config struct {
	// Binth is the leaf threshold (0 selects tree.DefaultBinth).
	Binth int
}

// DefaultConfig returns the standard HyperCuts configuration.
func DefaultConfig() Config {
	return Config{Binth: tree.DefaultBinth}
}

// Build constructs a HyperCuts decision tree for the classifier.
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

// cut compacts n's region, then cuts it along the dimensions
// chooseDimensions picks with the fan-outs chooseCounts grows; nil when no
// dimension separates the node's rules.
func cut(t *tree.Tree, n *tree.Node) ([]*tree.Node, error) {
	compactRegion(t, n)
	candidates := chooseDimensions(t, n)
	if len(candidates) == 0 {
		return nil, nil
	}
	dims, counts := chooseCounts(n, candidates)
	children, err := t.CutMulti(n, dims, counts)
	if err != nil {
		return nil, fmt.Errorf("hypercuts: cutting node at depth %d: %w", n.Depth, err)
	}
	return children, nil
}

// compactRegion shrinks the node's box in every dimension to the smallest
// range covering its rules' projections (clipped to the current box). The
// box still covers every rule in the node, so classification is unaffected
// for packets routed to this node; packets falling in the trimmed dead space
// match no rule here, exactly as before.
func compactRegion(t *tree.Tree, n *tree.Node) {
	if len(n.Rules) == 0 {
		return
	}
	for _, d := range rule.Dimensions() {
		lo := n.Box[d].Hi
		hi := n.Box[d].Lo
		for _, ri := range n.Rules {
			rr, ok := t.Rules[ri].Ranges[d].Intersect(n.Box[d])
			if !ok {
				continue
			}
			if rr.Lo < lo {
				lo = rr.Lo
			}
			if rr.Hi > hi {
				hi = rr.Hi
			}
		}
		if lo <= hi {
			n.Box[d] = rule.Range{Lo: lo, Hi: hi}
		}
	}
}

// chooseDimensions selects every cuttable dimension whose distinct-range
// count is at least the mean across cuttable dimensions, capped at the three
// highest counts, the earlier dimension winning a tie (larger products
// explode the fan-out without helping). The highest count is never below
// the mean, so some dimension is chosen whenever one has two ranges.
func chooseDimensions(t *tree.Tree, n *tree.Node) []rule.Dimension {
	type dimCount struct {
		d rule.Dimension
		c int
	}
	var candidates []dimCount
	sum := 0
	for _, d := range rule.Dimensions() {
		if n.Box[d].Size() < 2 {
			continue
		}
		c := rule.DistinctRangeCount(t.Rules, n.Rules, d)
		if c < 2 {
			continue
		}
		candidates = append(candidates, dimCount{d, c})
		sum += c
	}
	if len(candidates) == 0 {
		return nil
	}
	mean := float64(sum) / float64(len(candidates))
	chosen := slices.DeleteFunc(candidates, func(dc dimCount) bool { return float64(dc.c) < mean })
	if len(chosen) > 3 {
		slices.SortStableFunc(chosen, func(a, b dimCount) int { return cmp.Compare(b.c, a.c) })
		chosen = chosen[:3]
	}
	var out []rule.Dimension
	for _, dc := range chosen {
		out = append(out, dc.d)
	}
	return out
}

// chooseCounts distributes a total fan-out budget of spfac*sqrt(rules)
// across the chosen dimensions, doubling the per-dimension fan-out
// round-robin while the budget allows. It returns the dimensions that ended
// up with a fan-out of at least 2 and their counts.
func chooseCounts(n *tree.Node, dims []rule.Dimension) ([]rule.Dimension, []int) {
	budget := spFac * math.Sqrt(float64(n.NumRules()))
	if budget < 4 {
		budget = 4
	}
	counts := make([]int, len(dims))
	for i := range counts {
		counts[i] = 1
	}
	total := 1
	for {
		grew := false
		for i, d := range dims {
			if counts[i]*2 > maxCutsPerDim {
				continue
			}
			if uint64(counts[i]*2) > n.Box[d].Size() {
				continue
			}
			if float64(total/counts[i]*(counts[i]*2)) > budget {
				continue
			}
			total = total / counts[i] * (counts[i] * 2)
			counts[i] *= 2
			grew = true
		}
		if !grew {
			break
		}
	}
	var outDims []rule.Dimension
	var outCounts []int
	for i := range counts {
		if counts[i] >= 2 {
			outDims = append(outDims, dims[i])
			outCounts = append(outCounts, counts[i])
		}
	}
	if len(outDims) == 0 {
		// Budget too tight for any doubling: fall back to a binary cut on the
		// first candidate dimension, which chooseDimensions guarantees can be
		// subdivided.
		return []rule.Dimension{dims[0]}, []int{2}
	}
	return outDims, outCounts
}
