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
	"fmt"
	"math"

	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// Config holds the HyperCuts tuning knobs.
type Config struct {
	// Binth is the leaf threshold.
	Binth int
	// SpFac is the space-measure factor bounding the total fan-out of a
	// node: the number of children may not exceed SpFac * sqrt(rules).
	SpFac float64
	// MaxCutsPerDim caps the per-dimension fan-out.
	MaxCutsPerDim int
	// MaxDepth aborts pathological constructions; 0 means no limit.
	MaxDepth int
	// RegionCompaction enables shrinking node boxes to their rules' bounding
	// box before cutting (on by default in DefaultConfig).
	RegionCompaction bool
}

// DefaultConfig returns the standard HyperCuts configuration.
func DefaultConfig() Config {
	return Config{
		Binth:            tree.DefaultBinth,
		SpFac:            4.0,
		MaxCutsPerDim:    16,
		MaxDepth:         256,
		RegionCompaction: true,
	}
}

// Build constructs a HyperCuts decision tree for the classifier.
func Build(s *rule.Set, cfg Config) (*tree.Tree, error) {
	if cfg.Binth <= 0 {
		cfg.Binth = tree.DefaultBinth
	}
	if cfg.SpFac <= 0 {
		cfg.SpFac = 4.0
	}
	if cfg.MaxCutsPerDim < 2 {
		cfg.MaxCutsPerDim = 16
	}
	t := tree.New(s, cfg.Binth)
	if err := buildNode(t, t.Root, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

func buildNode(t *tree.Tree, n *tree.Node, cfg Config) error {
	if t.IsTerminal(n) {
		return nil
	}
	if cfg.MaxDepth > 0 && n.Depth >= cfg.MaxDepth {
		return nil
	}
	if cfg.RegionCompaction {
		compactRegion(t, n)
	}
	candidates := chooseDimensions(t, n)
	if len(candidates) == 0 {
		return nil
	}
	dims, counts := chooseCounts(n, candidates, cfg)
	if len(dims) == 0 {
		return nil
	}
	children, err := t.CutMulti(n, dims, counts)
	if err != nil {
		return fmt.Errorf("hypercuts: cutting node at depth %d: %w", n.Depth, err)
	}
	progress := false
	for _, c := range children {
		if c.NumRules() < n.NumRules() {
			progress = true
			break
		}
	}
	for _, c := range children {
		if !progress && c.NumRules() == n.NumRules() {
			continue
		}
		if err := buildNode(t, c, cfg); err != nil {
			return err
		}
	}
	return nil
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
// count is at least the mean across cuttable dimensions, capped at three
// dimensions (larger products explode the fan-out without helping).
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
	var out []rule.Dimension
	for _, dc := range candidates {
		if float64(dc.c) >= mean {
			out = append(out, dc.d)
		}
	}
	if len(out) == 0 {
		out = append(out, candidates[0].d)
	}
	if len(out) > 3 {
		// Keep the three highest-count dimensions.
		best := out
		// Simple selection by repeatedly taking the max.
		selected := make([]rule.Dimension, 0, 3)
		used := map[rule.Dimension]bool{}
		for len(selected) < 3 {
			bestDim := best[0]
			bestC := -1
			for _, dc := range candidates {
				if used[dc.d] {
					continue
				}
				inOut := false
				for _, d := range best {
					if d == dc.d {
						inOut = true
						break
					}
				}
				if inOut && dc.c > bestC {
					bestDim, bestC = dc.d, dc.c
				}
			}
			used[bestDim] = true
			selected = append(selected, bestDim)
		}
		out = selected
	}
	return out
}

// chooseCounts distributes a total fan-out budget of spfac*sqrt(rules)
// across the chosen dimensions, doubling the per-dimension fan-out
// round-robin while the budget allows. It returns the dimensions that ended
// up with a fan-out of at least 2 and their counts.
func chooseCounts(n *tree.Node, dims []rule.Dimension, cfg Config) ([]rule.Dimension, []int) {
	budget := cfg.SpFac * math.Sqrt(float64(n.NumRules()))
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
			if counts[i]*2 > cfg.MaxCutsPerDim {
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
