package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"neurocuts/internal/rule"
)

// assignRulesRef and clipToBoxRef are the rule distribution every cut used
// before the one-pass kernel, kept verbatim: one call per child, each
// rescanning the parent's whole list and clipping whole rule.Rule copies.
// They define "the same trees"; distribute is held to them below.
func assignRulesRef(rules []rule.Rule, box [rule.NumDims]rule.Range) []rule.Rule {
	prune := len(rules) <= redundancyLimit
	var out []rule.Rule
	for _, r := range rules {
		if !overlapsBoxRef(r, box) {
			continue
		}
		if prune {
			clipped := clipToBoxRef(r, box)
			redundant := false
			for _, kept := range out {
				if coversRef(clipToBoxRef(kept, box), clipped) {
					redundant = true
					break
				}
			}
			if redundant {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// overlapsBoxRef and coversRef are rule.Rule's OverlapsBox and Covers as
// the reference used them.
func overlapsBoxRef(r rule.Rule, box [rule.NumDims]rule.Range) bool {
	for _, d := range rule.Dimensions() {
		if _, ok := r.Ranges[d].Intersect(box[d]); !ok {
			return false
		}
	}
	return true
}

func coversRef(r, o rule.Rule) bool {
	for _, d := range rule.Dimensions() {
		if !r.Ranges[d].Covers(o.Ranges[d]) {
			return false
		}
	}
	return true
}

func clipToBoxRef(r rule.Rule, box [rule.NumDims]rule.Range) rule.Rule {
	clipped := r
	for _, d := range rule.Dimensions() {
		if ir, ok := r.Ranges[d].Intersect(box[d]); ok {
			clipped.Ranges[d] = ir
		}
	}
	return clipped
}

// refChildBoxes lays out the children of an equal cut the way CutMulti
// always has: the cross product of splitRange's pieces, last dimension
// fastest.
func refChildBoxes(parent box, dims []rule.Dimension, counts []int) []box {
	boxes := []box{parent}
	for i, d := range dims {
		var next []box
		for _, b := range boxes {
			for _, piece := range splitRange(parent[d], counts[i]) {
				b[d] = piece
				next = append(next, b)
			}
		}
		boxes = next
	}
	return boxes
}

// randomRange draws a range inside within: the whole of it (wildcard share
// of the time), an aligned power-of-two block, a single value or an
// arbitrary interval.
func randomRange(rng *rand.Rand, within rule.Range, wildcard float64) rule.Range {
	size := within.Size()
	switch x := rng.Float64(); {
	case x < wildcard || size == 1:
		return within
	case x < wildcard+(1-wildcard)*0.4:
		block := uint64(1) << rng.Intn(33)
		for block >= size {
			block >>= 1
		}
		lo := within.Lo + (uint64(rng.Int63())%size)/block*block
		return rule.Range{Lo: lo, Hi: min(lo+block-1, within.Hi)}
	case x < wildcard+(1-wildcard)*0.6:
		v := within.Lo + uint64(rng.Int63())%size
		return rule.Range{Lo: v, Hi: v}
	default:
		a := within.Lo + uint64(rng.Int63())%size
		b := within.Lo + uint64(rng.Int63())%size
		return rule.Range{Lo: min(a, b), Hi: max(a, b)}
	}
}

// randomRules draws n rules whose ranges fall in a region somewhat larger
// than the box under test (so some rules miss it), a share of them exact
// duplicates of an earlier rule.
func randomRules(rng *rand.Rand, n int, region box, wildcard, duplicates float64) []rule.Rule {
	rules := make([]rule.Rule, 0, n)
	for len(rules) < n {
		var r rule.Rule
		if len(rules) > 0 && rng.Float64() < duplicates {
			r = rules[rng.Intn(len(rules))]
		} else {
			for d := range r.Ranges {
				r.Ranges[d] = randomRange(rng, region[d], wildcard)
			}
		}
		rules = append(rules, r)
	}
	return rule.NewSet(rules).Rules()
}

// checkChildren holds the children a cut produced to the reference: the
// expected boxes in order, and for each the rules assignRulesRef picks from
// the parent's list.
func checkChildren(t *testing.T, name string, tr *Tree, parent []int32, children []*Node, boxes []box) {
	t.Helper()
	if len(children) != len(boxes) {
		t.Fatalf("%s: %d children, reference has %d", name, len(children), len(boxes))
	}
	parentRules := make([]rule.Rule, len(parent))
	for i, ri := range parent {
		parentRules[i] = tr.Rules[ri]
	}
	for c, child := range children {
		if child.Box != boxes[c] {
			t.Fatalf("%s: child %d box %v, reference %v", name, c, child.Box, boxes[c])
		}
		want := assignRulesRef(parentRules, boxes[c])
		if len(child.Rules) != len(want) {
			t.Fatalf("%s: child %d holds %d rules, reference %d", name, c, len(child.Rules), len(want))
		}
		for j, ri := range child.Rules {
			if tr.Rules[ri] != want[j] {
				t.Fatalf("%s: child %d rule %d is %v, reference %v", name, c, j, tr.Rules[ri], want[j])
			}
		}
		if cap(child.Rules) != len(child.Rules) {
			t.Fatalf("%s: child %d list has spare capacity %d: an append would write into its neighbour",
				name, c, cap(child.Rules)-len(child.Rules))
		}
	}
}

// TestDistributeMatchesReference is the "same trees" differential: over
// random rule lists and boxes, Cut, CutMulti (two and three dimensions) and
// CutAtPoints must give every child exactly the rules, in exactly the order,
// that the per-child reference picks — at list sizes 0, 1, Binth and on both
// sides of redundancyLimit, over wildcard-heavy lists and lists with exact
// duplicates, from a node whose list is a strict subset of the classifier,
// and in boxes narrower than the requested fan-out.
func TestDistributeMatchesReference(t *testing.T) {
	full := New(rule.NewSet(nil), 0).Root.Box
	narrow := full // narrower than most fan-outs, and off the power-of-two grid
	narrow[rule.DimSrcIP] = rule.Range{Lo: 1000, Hi: 1006}
	narrow[rule.DimDstIP] = rule.Range{Lo: 77, Hi: 79}
	narrow[rule.DimSrcPort] = rule.Range{Lo: 5, Hi: 5}
	narrow[rule.DimProto] = rule.Range{Lo: 3, Hi: 40}
	odd := full // arbitrary bounds, as HyperCuts' region compaction leaves them
	odd[rule.DimSrcIP] = rule.Range{Lo: 0x0A000003, Hi: 0x0AFF1234}
	odd[rule.DimDstIP] = rule.Range{Lo: 12345, Hi: 0xC0A80101}
	odd[rule.DimSrcPort] = rule.Range{Lo: 1024, Hi: 49151}
	odd[rule.DimDstPort] = rule.Range{Lo: 1, Hi: 65534}

	sizes := []int{0, 1, DefaultBinth, 300, redundancyLimit, redundancyLimit + 1}
	if testing.Short() {
		sizes = []int{0, 1, DefaultBinth, 300}
	}
	rng := rand.New(rand.NewSource(1))
	for _, size := range sizes {
		for bi, parentBox := range []box{full, odd, narrow} {
			for _, mix := range []struct{ wildcard, duplicates float64 }{{0.2, 0}, {0.7, 0.1}} {
				if size >= redundancyLimit && (bi == 2 || mix.duplicates == 0) {
					continue // the quadratic reference takes seconds per cut here
				}
				// Rules are drawn from twice the box, so some miss it.
				region := parentBox
				for d := range region {
					span := region[d].Size()
					region[d].Lo -= min(region[d].Lo, span/2)
					region[d].Hi = min(region[d].Hi+span/2, rule.Dimension(d).MaxValue())
				}
				rules := randomRules(rng, size+size/4, region, mix.wildcard, mix.duplicates)
				// The node holds a strict subset of the list: every fifth rule is left out.
				var members []int32
				for i := range rules {
					if i%5 != 4 {
						members = append(members, int32(i))
					}
				}
				fresh := func() *Tree {
					tr := NewFromRules(rules, members, 0)
					tr.Root.Box = parentBox
					return tr
				}
				name := fmt.Sprintf("size=%d box=%d wildcard=%.1f", len(members), bi, mix.wildcard)

				for _, k := range []int{2, 8, 32} {
					dim := rule.Dimension(rng.Intn(rule.NumDims))
					tr := fresh()
					children, err := tr.Cut(tr.Root, dim, k)
					if err != nil {
						t.Fatal(err)
					}
					checkChildren(t, fmt.Sprintf("%s Cut(%s,%d)", name, dim, k), tr, members, children,
						refChildBoxes(parentBox, []rule.Dimension{dim}, []int{k}))
				}

				for _, ndims := range []int{2, 3} {
					perm := rng.Perm(rule.NumDims)
					dims := make([]rule.Dimension, ndims)
					counts := make([]int, ndims)
					asked := make([]int, ndims)
					for i := range dims {
						dims[i] = rule.Dimension(perm[i])
						counts[i] = []int{2, 3, 4, 8}[rng.Intn(4)]
						asked[i] = counts[i]
					}
					tr := fresh()
					children, err := tr.CutMulti(tr.Root, dims, counts)
					if err != nil {
						t.Fatal(err)
					}
					for i := range counts {
						if counts[i] != asked[i] {
							t.Fatalf("%s: CutMulti overwrote the caller's counts: %v, asked %v", name, counts, asked)
						}
					}
					checkChildren(t, fmt.Sprintf("%s CutMulti(%v,%v)", name, dims, counts), tr, members, children,
						refChildBoxes(parentBox, dims, counts))
				}

				dim := rule.Dimension(rng.Intn(rule.NumDims))
				if parentBox[dim].Size() < 2 {
					dim = rule.DimSrcIP
				}
				var points []uint64
				for p, n := parentBox[dim].Lo, 1+rng.Intn(6); len(points) < n; {
					room := parentBox[dim].Hi - p
					if room == 0 {
						break
					}
					p += 1 + uint64(rng.Int63())%min(room, max(1, parentBox[dim].Size()/4))
					points = append(points, p)
				}
				tr := fresh()
				children, err := tr.CutAtPoints(tr.Root, dim, points)
				if err != nil {
					t.Fatal(err)
				}
				boxes := make([]box, len(points)+1)
				lo := parentBox[dim].Lo
				for i := range boxes {
					boxes[i] = parentBox
					hi := parentBox[dim].Hi
					if i < len(points) {
						hi = points[i] - 1
					}
					boxes[i][dim] = rule.Range{Lo: lo, Hi: hi}
					lo = hi + 1
				}
				checkChildren(t, fmt.Sprintf("%s CutAtPoints(%s,%v)", name, dim, points), tr, members, children, boxes)
			}
		}
	}
}
