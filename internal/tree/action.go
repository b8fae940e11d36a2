package tree

import (
	"fmt"
	"slices"
	"sync"

	"neurocuts/internal/rule"
)

// MaxCutsPerDim caps the number of equal-sized pieces a single cut action
// may create in one dimension. It is a sanity bound on the engine; the
// NeuroCuts agent further restricts itself to the CutSizes fan-outs while
// hand-tuned heuristics such as HiCuts may use larger fan-outs.
const MaxCutsPerDim = 256

// CutSizes is the set of cut fan-outs available to the NeuroCuts agent
// ({2, 4, 8, 16, 32}, Section 4.1 of the paper).
var CutSizes = []int{2, 4, 8, 16, 32}

// Cut splits node n along a single dimension into k equal-sized pieces and
// attaches the resulting children. Rules are replicated into every child
// whose sub-box they intersect. It returns the created children.
//
// Cutting an already-expanded node or using a fan-out below 2 is a
// programming error and returns an error without modifying the node.
func (t *Tree) Cut(n *Node, dim rule.Dimension, k int) ([]*Node, error) {
	return t.CutMulti(n, []rule.Dimension{dim}, []int{k})
}

// CutMulti splits node n along several dimensions at once (the HyperCuts
// generalisation): dims[i] is cut into counts[i] equal pieces and the
// children form the cross product of the per-dimension pieces. A box
// narrower than a requested fan-out yields one piece per value.
func (t *Tree) CutMulti(n *Node, dims []rule.Dimension, counts []int) ([]*Node, error) {
	if !n.IsLeaf() {
		return nil, fmt.Errorf("tree: node already expanded (%s)", n.Kind)
	}
	if len(dims) == 0 || len(dims) != len(counts) {
		return nil, fmt.Errorf("tree: mismatched cut dims/counts (%d vs %d)", len(dims), len(counts))
	}
	seen := 0 // bitmask over the five dimensions
	for i, d := range dims {
		if d < 0 || d >= rule.NumDims {
			return nil, fmt.Errorf("tree: unknown dimension %s", d)
		}
		if seen&(1<<d) != 0 {
			return nil, fmt.Errorf("tree: dimension %s cut twice in one action", d)
		}
		seen |= 1 << d
		if counts[i] < 2 {
			return nil, fmt.Errorf("tree: cut count %d in %s must be >= 2", counts[i], d)
		}
		if counts[i] > MaxCutsPerDim {
			return nil, fmt.Errorf("tree: cut count %d in %s exceeds max %d", counts[i], d, MaxCutsPerDim)
		}
	}

	axes := make([]cutAxis, len(dims))
	effective := make([]int, len(dims)) // the caller keeps its counts
	for i, d := range dims {
		pieces := splitRange(n.Box[d], counts[i])
		axes[i] = cutAxis{dim: d, pieces: pieces, step: n.Box[d].Size() / uint64(len(pieces))}
		effective[i] = len(pieces)
	}
	n.Children = t.distribute(n, axes)
	n.Kind = KindCut
	n.CutDims = append([]rule.Dimension(nil), dims...)
	n.CutCounts = effective
	return n.Children, nil
}

// CutAtPoints splits node n along a single dimension at explicit boundaries:
// points must be strictly increasing values inside the node's range for dim,
// and each point p starts a new child at p (so k points produce k+1
// children). This is the "equi-dense" cut used by EffiCuts and the
// HyperSplit-style splits used by CutSplit, where cut boundaries follow the
// rule distribution rather than being equal-sized.
func (t *Tree) CutAtPoints(n *Node, dim rule.Dimension, points []uint64) ([]*Node, error) {
	if !n.IsLeaf() {
		return nil, fmt.Errorf("tree: node already expanded (%s)", n.Kind)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("tree: CutAtPoints needs at least one boundary")
	}
	box := n.Box[dim]
	prev := box.Lo
	pieces := make([]rule.Range, 0, len(points)+1)
	for i, p := range points {
		if p <= prev || p > box.Hi {
			return nil, fmt.Errorf("tree: boundary %d (%d) outside (%d, %d]", i, p, prev, box.Hi)
		}
		pieces = append(pieces, rule.Range{Lo: prev, Hi: p - 1})
		prev = p
	}
	pieces = append(pieces, rule.Range{Lo: prev, Hi: box.Hi})

	n.Children = t.distribute(n, []cutAxis{{dim: dim, pieces: pieces}})
	n.Kind = KindCut
	n.CutDims = []rule.Dimension{dim}
	n.CutCounts = []int{len(pieces)}
	n.CustomCut = true
	return n.Children, nil
}

// Boundaries appends to dst, and returns, the distinct boundaries,
// ascending, that n's rules offer CutAtPoints in dim: each rule range's low
// end and the value just past its high end, clipped to the node's box, that
// lie strictly inside it. A caller asking for several dimensions passes the
// last result back as dst[:0] to reuse its storage.
func (t *Tree) Boundaries(dst []uint64, n *Node, dim rule.Dimension) []uint64 {
	box := n.Box[dim]
	start := len(dst)
	out := slices.Grow(dst, 2*len(n.Rules))
	for _, ri := range n.Rules {
		rr, ok := t.Rules[ri].Ranges[dim].Intersect(box)
		if !ok {
			continue
		}
		if rr.Lo > box.Lo {
			out = append(out, rr.Lo)
		}
		if rr.Hi < box.Hi {
			out = append(out, rr.Hi+1)
		}
	}
	slices.Sort(out[start:])
	return append(out[:start], slices.Compact(out[start:])...)
}

// Partition splits node n's rules into the given disjoint groups — each a
// list of ascending positions in the tree's rule list, like n.Rules itself —
// and creates one child per non-empty group, each covering the same box as
// n. Labels (optional, may be nil) annotate the children. It returns the
// created children.
func (t *Tree) Partition(n *Node, groups [][]int32, labels []string) ([]*Node, error) {
	if !n.IsLeaf() {
		return nil, fmt.Errorf("tree: node already expanded (%s)", n.Kind)
	}
	if len(groups) < 2 {
		return nil, fmt.Errorf("tree: partition needs at least 2 groups, got %d", len(groups))
	}
	totalRules := 0
	for _, g := range groups {
		totalRules += len(g)
	}
	if totalRules != len(n.Rules) {
		return nil, fmt.Errorf("tree: partition groups hold %d rules, node holds %d", totalRules, len(n.Rules))
	}
	children := make([]*Node, 0, len(groups))
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		child := &Node{
			Kind:           KindLeaf,
			Box:            n.Box,
			Depth:          n.Depth + 1,
			Rules:          append([]int32(nil), g...),
			PartitionGroup: i + 1,
		}
		if labels != nil && i < len(labels) {
			child.PartitionLabel = labels[i]
		}
		children = append(children, child)
	}
	if len(children) < 2 {
		return nil, fmt.Errorf("tree: partition produced %d non-empty groups, need >= 2", len(children))
	}
	n.Kind = KindPartition
	n.Children = children
	return children, nil
}

// PartitionByCoverage splits node n's rules into two groups by whether their
// coverage of dimension dim exceeds threshold (the "simple" partition action
// of the NeuroCuts action space). It fails if either side would be empty,
// because such a partition makes no progress.
func (t *Tree) PartitionByCoverage(n *Node, dim rule.Dimension, threshold float64) ([]*Node, error) {
	var small, large []int32
	for _, ri := range n.Rules {
		if t.Rules[ri].Coverage(dim) > threshold {
			large = append(large, ri)
		} else {
			small = append(small, ri)
		}
	}
	if len(small) == 0 || len(large) == 0 {
		return nil, fmt.Errorf("tree: coverage partition on %s at %.2f is degenerate (%d/%d)",
			dim, threshold, len(small), len(large))
	}
	return t.Partition(n, [][]int32{small, large},
		[]string{fmt.Sprintf("%s<=%.2f", dim, threshold), fmt.Sprintf("%s>%.2f", dim, threshold)})
}

// splitRange divides r into k equal-sized sub-ranges (the last sub-range
// absorbs the remainder). If the range has fewer than k values it returns
// one sub-range per value.
func splitRange(r rule.Range, k int) []rule.Range {
	size := r.Size()
	if uint64(k) > size {
		k = int(size)
	}
	if k <= 1 {
		return []rule.Range{r}
	}
	out := make([]rule.Range, 0, k)
	step := size / uint64(k)
	lo := r.Lo
	for i := 0; i < k; i++ {
		hi := lo + step - 1
		if i == k-1 {
			hi = r.Hi
		}
		out = append(out, rule.Range{Lo: lo, Hi: hi})
		lo = hi + 1
	}
	return out
}

// redundancyLimit bounds the quadratic rule-overlap optimisation: nodes
// holding more rules than this skip redundancy elimination (keeping the
// redundant rules is always correct, just slightly larger), so that cutting
// the top of a 100k-rule tree stays near-linear.
const redundancyLimit = 4096

// box is a hyper-rectangle: a node's region, or a rule clipped to one.
type box = [rule.NumDims]rule.Range

// cutAxis is one dimension of a cut: the pieces the parent's range is
// divided into, in ascending order and tiling it.
type cutAxis struct {
	dim    rule.Dimension
	pieces []rule.Range
	// step is the width of an equal cut's pieces (the last one also takes the
	// remainder); 0 marks explicit boundaries, located by search.
	step uint64
}

// locate returns the index of the piece holding v, a value inside the
// parent's range.
func (a *cutAxis) locate(v uint64) int {
	if a.step != 0 {
		return min(int((v-a.pieces[0].Lo)/a.step), len(a.pieces)-1)
	}
	lo, hi := 0, len(a.pieces) // pieces[lo].Lo <= v < pieces[hi].Lo
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); a.pieces[mid].Lo <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// childRef says that the rule at position pos of the parent's list reaches
// child number child.
type childRef struct{ child, pos int32 }

// cutScratch is the working memory of one distribute call. It is pooled:
// NeuroCuts starts a tree per rollout and cuts a node per step.
type cutScratch struct {
	refs    []childRef // every (child, rule) incidence, in parent-list order
	cand    []int32    // the same bucketed by child: positions in the parent's list
	offsets []int      // per child, a cursor into cand: bucket start, then end
	clipped []box      // by position: the rule clipped to the parent's box
	kept    []box      // the rules the child in hand has kept, clipped to its box
}

var scratchPool = sync.Pool{New: func() any { return new(cutScratch) }}

// grown returns s with length n, reallocating only when it is too small.
// The contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// distribute creates the children of a cut of n along axes — their boxes are
// the cross product of the axes' pieces, the last axis varying fastest — and
// gives every child the rules of n that intersect its box, preserving
// priority order, with rules made redundant inside the box removed: a rule
// is redundant when a strictly higher-priority rule's intersection with the
// box fully covers its own intersection (the standard HiCuts rule-overlap
// optimisation, applied uniformly to all algorithms; skipped when n holds
// more than redundancyLimit rules).
//
// The parent's list is walked once. Each rule is clipped to the parent's box
// once; the children it reaches are the cross product of the piece spans its
// clipped ranges cover, found by arithmetic or search, never by testing
// every child. Pruning then runs child by child over that child's candidates
// alone, comparing bare clipped ranges. It asks of every rule whether an
// earlier one contains it — a containment query in ten coordinates, answered
// by scanning the kept list — so it is quadratic in a child's list, which is
// why redundancyLimit exists.
func (t *Tree) distribute(n *Node, axes []cutAxis) []*Node {
	total := 1
	for i := range axes {
		total *= len(axes[i].pieces)
	}
	nodes := make([]Node, total)
	children := make([]*Node, total)
	for c := range nodes {
		child := &nodes[c]
		child.Kind, child.Box, child.Depth = KindLeaf, n.Box, n.Depth+1
		for i, rest := len(axes)-1, c; i >= 0; i-- {
			k := len(axes[i].pieces)
			child.Box[axes[i].dim] = axes[i].pieces[rest%k]
			rest /= k
		}
		children[c] = child
	}

	sc := scratchPool.Get().(*cutScratch)
	defer scratchPool.Put(sc)
	prune := len(n.Rules) <= redundancyLimit
	if prune {
		sc.clipped = grown(sc.clipped, len(n.Rules))
	}
	sc.offsets = grown(sc.offsets, total+1)
	clear(sc.offsets)

	// One pass over the parent's list: clip, find the span of pieces reached
	// on every axis, record one ref per child in the cross product.
	refs := sc.refs[:0]
	last := len(axes) - 1
	lastPieces := len(axes[last].pieces)
	for pos, ri := range n.Rules {
		var clip box
		if !clipToBox(&t.Rules[ri], &n.Box, &clip) {
			continue
		}
		if prune {
			sc.clipped[pos] = clip
		}
		var lo, hi [rule.NumDims]int
		for i := range axes {
			r := clip[axes[i].dim]
			lo[i], hi[i] = axes[i].locate(r.Lo), axes[i].locate(r.Hi)
		}
		idx := lo // mixed-radix counter over the leading axes' spans
		for {
			base := 0
			for i := 0; i < last; i++ {
				base = base*len(axes[i].pieces) + idx[i]
			}
			base *= lastPieces
			for c := base + lo[last]; c <= base+hi[last]; c++ {
				refs = append(refs, childRef{child: int32(c), pos: int32(pos)})
				sc.offsets[c+1]++
			}
			i := last - 1
			for ; i >= 0; i-- {
				if idx[i]++; idx[i] <= hi[i] {
					break
				}
				idx[i] = lo[i]
			}
			if i < 0 {
				break
			}
		}
	}
	sc.refs = refs

	// Bucket the refs by child. They were produced in parent-list order, so
	// every bucket is in priority order. Filling advances offsets[c] from the
	// start of child c's bucket to its end.
	for c := 0; c < total; c++ {
		sc.offsets[c+1] += sc.offsets[c]
	}
	sc.cand = grown(sc.cand, len(refs))
	for _, ref := range refs {
		sc.cand[sc.offsets[ref.child]] = ref.pos
		sc.offsets[ref.child]++
	}

	// Prune child by child, compacting the survivors towards the front of
	// cand; offsets[c] becomes the end of child c's survivors.
	if prune {
		start, w := 0, 0
		for c, child := range children {
			end := sc.offsets[c]
			kept := sc.kept[:0]
			for _, pos := range sc.cand[start:end] {
				clip := sc.clipped[pos]
				for i := range axes {
					d := axes[i].dim
					clip[d].Lo = max(clip[d].Lo, child.Box[d].Lo)
					clip[d].Hi = min(clip[d].Hi, child.Box[d].Hi)
				}
				if coveredByAny(kept, &clip) {
					continue
				}
				kept = append(kept, clip)
				sc.cand[w] = pos
				w++
			}
			sc.kept = kept
			sc.offsets[c] = w
			start = end
		}
	}

	// One exactly-sized slab holds every child's list; the three-index
	// slices keep an append to one child's list out of its neighbour's.
	slab := make([]int32, sc.offsets[total-1])
	for j := range slab {
		slab[j] = n.Rules[sc.cand[j]]
	}
	start := 0
	for c, child := range children {
		end := sc.offsets[c]
		child.Rules = slab[start:end:end]
		start = end
	}
	return children
}

// clipToBox writes r's ranges clipped to b into out and reports whether r
// intersects b at all.
func clipToBox(r *rule.Rule, b, out *box) bool {
	for d := range out {
		lo, hi := max(r.Ranges[d].Lo, b[d].Lo), min(r.Ranges[d].Hi, b[d].Hi)
		if lo > hi {
			return false
		}
		out[d] = rule.Range{Lo: lo, Hi: hi}
	}
	return true
}

// coveredByAny reports whether one of the kept boxes fully contains c.
func coveredByAny(kept []box, c *box) bool {
	for i := range kept {
		k := &kept[i]
		if k[0].Lo <= c[0].Lo && c[0].Hi <= k[0].Hi &&
			k[1].Lo <= c[1].Lo && c[1].Hi <= k[1].Hi &&
			k[2].Lo <= c[2].Lo && c[2].Hi <= k[2].Hi &&
			k[3].Lo <= c[3].Lo && c[3].Hi <= k[3].Hi &&
			k[4].Lo <= c[4].Lo && c[4].Hi <= k[4].Hi {
			return true
		}
	}
	return false
}
