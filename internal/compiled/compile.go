package compiled

import (
	"errors"
	"fmt"
	"math"

	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// Compile flattens one or more finished decision trees over the classifier
// set into the immutable serving form. Tree leaves hold positions in the
// rule list the tree was built over, and they are copied out as they stand,
// so that list must be the set's: a tree over the set's own slice is taken
// at its word, any other has every rule its leaves reference compared with
// the set's rule at that position. Multi-tree backends pass all their trees
// and lookups take the best match across them. A node with 2^26 or more
// children or leaf rules is refused with an error: a serving node cannot
// count them (see packB).
//
// The classifier keeps the set's rule slice rather than a copy of it — like
// the trees, it holds the rule list once — so the set must not be modified
// in place afterwards. The engine never does: an update publishes a cloned
// list, and its snapshot retains the set beside the classifier anyway.
func Compile(set *rule.Set, trees ...*tree.Tree) (*Classifier, error) {
	if set == nil {
		return nil, errors.New("compiled: nil rule set")
	}
	if len(trees) == 0 {
		return nil, errors.New("compiled: no trees to compile")
	}
	c := &Classifier{rules: set.Rules()}

	// One walk sizes the slabs, so the BFS below appends without regrowing
	// them: appending from empty allocates several times their final size.
	var nNodes, nRefs, nDescs, nPoints int
	for ti, t := range trees {
		if t == nil || t.Root == nil {
			return nil, fmt.Errorf("compiled: tree %d is nil", ti)
		}
		if sr := set.Rules(); len(t.Rules) != len(sr) || (len(sr) > 0 && &t.Rules[0] != &sr[0]) {
			if err := checkLeafRules(t, sr); err != nil {
				return nil, err
			}
		}
		t.Walk(func(n *tree.Node) bool {
			nNodes++
			switch {
			case n.IsLeaf():
				nRefs += len(n.Rules)
			case n.Kind != tree.KindCut:
			case n.CustomCut:
				nPoints += len(n.Children) - 1
			default:
				nDescs += len(n.CutDims)
			}
			return true
		})
	}
	c.canonNodes = make([]canonNode, 0, nNodes)
	c.leafRules = make([]uint32, 0, nRefs)
	c.cutDescs = make([]cutDesc, 0, nDescs)
	c.cutPoints64 = make([]uint64, 0, nPoints)

	// BFS across all trees: the pointer queue parallels c.canonNodes,
	// children are appended contiguously when their parent is processed, so
	// child spans are contiguous and child indices always exceed the
	// parent's.
	queue := make([]*tree.Node, 0, nNodes)
	for _, t := range trees {
		c.roots = append(c.roots, uint32(len(queue)))
		queue = append(queue, t.Root)
		c.canonNodes = append(c.canonNodes, canonNode{})
	}
	for i := 0; i < len(queue); i++ {
		nd, err := c.compileNode(queue[i], &queue)
		if err != nil {
			return nil, err
		}
		c.canonNodes[i] = nd
	}

	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("compiled: internal inconsistency: %w", err)
	}
	c.deriveServing()
	return c, nil
}

// checkLeafRules reports whether every rule a leaf of t references is the
// rule at the same position of rules, for a tree built over another slice.
func checkLeafRules(t *tree.Tree, rules []rule.Rule) error {
	var err error
	t.Walk(func(n *tree.Node) bool {
		if !n.IsLeaf() {
			return true
		}
		for _, ri := range n.Rules {
			if ri < 0 || int(ri) >= len(t.Rules) || int(ri) >= len(rules) || t.Rules[ri] != rules[ri] {
				err = fmt.Errorf("compiled: leaf rule at position %d of the tree's list is not the classifier set's", ri)
				return false
			}
		}
		return true
	})
	return err
}

// compileNode converts one pointer node, appending its children to the
// shared BFS queue (and reserving their slots in c.canonNodes).
func (c *Classifier) compileNode(pn *tree.Node, queue *[]*tree.Node) (canonNode, error) {
	if pn.IsLeaf() {
		nd := canonNode{kind: kindLeaf, a: uint32(len(c.leafRules)), b: uint32(len(pn.Rules))}
		for _, ri := range pn.Rules {
			c.leafRules = append(c.leafRules, uint32(ri)) // range and order are validate's to check
		}
		return nd, nil
	}

	childLo := uint32(len(*queue))
	for _, ch := range pn.Children {
		*queue = append(*queue, ch)
		c.canonNodes = append(c.canonNodes, canonNode{})
	}
	nd := canonNode{a: childLo, b: uint32(len(pn.Children))}

	switch {
	case pn.Kind == tree.KindPartition:
		nd.kind = kindPartition
		return nd, nil

	case pn.Kind == tree.KindCut && pn.CustomCut:
		if len(pn.CutDims) != 1 {
			return canonNode{}, fmt.Errorf("compiled: custom cut over %d dimensions", len(pn.CutDims))
		}
		dim := pn.CutDims[0]
		nd.kind = kindCustomCut
		nd.ndims = uint8(dim)
		nd.cut = uint32(len(c.cutPoints64))
		// The boundary count is implied: nd.b - 1.
		// Recover the boundaries from the child boxes: child j starts at
		// its own Lo, so the points are the Lo of children 1..k-1.
		prev := pn.Children[0].Box[dim].Lo
		for _, ch := range pn.Children[1:] {
			p := ch.Box[dim].Lo
			if p <= prev {
				return canonNode{}, fmt.Errorf("compiled: custom cut boundaries not increasing (%d after %d)", p, prev)
			}
			c.cutPoints64 = append(c.cutPoints64, p)
			prev = p
		}
		return nd, nil

	case pn.Kind == tree.KindCut:
		if len(pn.CutDims) == 0 || len(pn.CutDims) != len(pn.CutCounts) {
			return canonNode{}, fmt.Errorf("compiled: malformed cut node (%d dims, %d counts)", len(pn.CutDims), len(pn.CutCounts))
		}
		nd.kind = kindCut
		nd.ndims = uint8(len(pn.CutDims))
		nd.cut = uint32(len(c.cutDescs))
		product := 1
		for i, d := range pn.CutDims {
			count := pn.CutCounts[i]
			if count < 1 {
				return canonNode{}, fmt.Errorf("compiled: cut count %d in %s", count, d)
			}
			box := pn.Box[d]
			c.cutDescs = append(c.cutDescs, cutDesc{
				lo:    box.Lo,
				step:  box.Size() / uint64(count),
				count: uint32(count),
				dim:   uint8(d),
			})
			product *= count
		}
		if product != len(pn.Children) {
			return canonNode{}, fmt.Errorf("compiled: cut fan-out %d does not match %d children", product, len(pn.Children))
		}
		return nd, nil

	default:
		return canonNode{}, fmt.Errorf("compiled: unknown node kind %v", pn.Kind)
	}
}

// validate checks every structural invariant the lookup path relies on, on
// the canonical slabs: every count within a serving node's 26 bits, no cut
// fields on a leaf or partition, all spans in bounds, child indices strictly
// greater than the parent's
// (termination), no node reached twice (a forest), cut fan-outs consistent
// with child counts, cut origins and boundary points within their
// dimension's range (deriveServing narrows both to 32 bits), leaf spans
// strictly ascending by rule index (the rule list is priority-sorted, so
// list position is what "better match" means — across leaves and trees
// too, which is how tied priorities resolve to the first in the list
// exactly like rule.Set.MatchIndex), and rule ranges within their dimension
// widths. Load calls it on untrusted bytes; Compile calls it as a cheap
// self-check.
func (c *Classifier) validate() error {
	nNodes := uint64(len(c.canonNodes))
	nLeafRules := uint64(len(c.leafRules))
	nRules := uint64(len(c.rules))
	nDescs := uint64(len(c.cutDescs))
	nPoints := uint64(len(c.cutPoints64))

	for i, r := range c.rules {
		for _, d := range rule.Dimensions() {
			rg := r.Ranges[d]
			if rg.Lo > rg.Hi || rg.Hi > d.MaxValue() {
				return fmt.Errorf("rule %d: range %v invalid for %s", i, rg, d)
			}
		}
		if r.Priority < math.MinInt32 || r.Priority > math.MaxInt32 {
			return fmt.Errorf("rule %d: priority %d out of range", i, r.Priority)
		}
		if i > 0 && r.Priority < c.rules[i-1].Priority {
			return fmt.Errorf("rule %d: priorities not in ascending order", i)
		}
	}

	// Every node is reached from one place at most — a root entry or one
	// parent's child span — so the slabs are a forest and a walk visits each
	// node at most once. Shared subtrees would let a crafted artifact make
	// every lookup, and Load's root-order probe, revisit them exponentially
	// often.
	reached := make([]bool, nNodes)
	reach := func(i uint32) error {
		if reached[i] {
			return fmt.Errorf("node %d reached twice (not a forest)", i)
		}
		reached[i] = true
		return nil
	}
	for _, r := range c.roots {
		if uint64(r) >= nNodes {
			return fmt.Errorf("root index %d out of range (%d nodes)", r, nNodes)
		}
		if err := reach(r); err != nil {
			return err
		}
	}

	checkChildren := func(i int, nd *canonNode) error {
		if nd.b == 0 {
			return fmt.Errorf("node %d: internal node with no children", i)
		}
		if uint64(nd.a) <= uint64(i) {
			return fmt.Errorf("node %d: child span starts at %d (must be after parent)", i, nd.a)
		}
		if uint64(nd.a)+uint64(nd.b) > nNodes {
			return fmt.Errorf("node %d: child span [%d,+%d) out of range (%d nodes)", i, nd.a, nd.b, nNodes)
		}
		for ch := nd.a; ch < nd.a+nd.b; ch++ {
			if err := reach(ch); err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
		}
		return nil
	}

	for i := range c.canonNodes {
		nd := &c.canonNodes[i]
		if _, err := packB(nd.kind, 0, nd.b); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		// A serving leaf or partition keeps no cut fields, so Save could not
		// write back a record that sets them.
		if (nd.kind == kindLeaf || nd.kind == kindPartition) && (nd.ndims != 0 || nd.cut != 0) {
			return fmt.Errorf("node %d: kind %d record sets cut fields (%d, %d)", i, nd.kind, nd.ndims, nd.cut)
		}
		switch nd.kind {
		case kindLeaf:
			if uint64(nd.a)+uint64(nd.b) > nLeafRules {
				return fmt.Errorf("node %d: leaf span [%d,+%d) out of range (%d refs)", i, nd.a, nd.b, nLeafRules)
			}
			for j := nd.a; j < nd.a+nd.b; j++ {
				ri := c.leafRules[j]
				if uint64(ri) >= nRules {
					return fmt.Errorf("node %d: leaf rule ref %d out of range (%d rules)", i, ri, nRules)
				}
				if j > nd.a && ri <= c.leafRules[j-1] {
					return fmt.Errorf("node %d: leaf rules not in ascending rule-index order", i)
				}
			}
		case kindCut:
			if err := checkChildren(i, nd); err != nil {
				return err
			}
			if nd.ndims == 0 || nd.ndims > rule.NumDims {
				return fmt.Errorf("node %d: cut over %d dimensions", i, nd.ndims)
			}
			if uint64(nd.cut)+uint64(nd.ndims) > nDescs {
				return fmt.Errorf("node %d: cut descriptor span out of range", i)
			}
			product := uint64(1)
			for k := uint32(0); k < uint32(nd.ndims); k++ {
				d := c.cutDescs[nd.cut+k]
				if d.dim >= rule.NumDims {
					return fmt.Errorf("node %d: cut dimension %d invalid", i, d.dim)
				}
				if d.count == 0 {
					return fmt.Errorf("node %d: zero cut count", i)
				}
				if dim := rule.Dimension(d.dim); d.lo > dim.MaxValue() {
					return fmt.Errorf("node %d: cut origin %d beyond %s's range", i, d.lo, dim)
				}
				product *= uint64(d.count)
				if product > nNodes {
					return fmt.Errorf("node %d: cut fan-out %d exceeds node count", i, product)
				}
			}
			if product != uint64(nd.b) {
				return fmt.Errorf("node %d: cut fan-out %d does not match %d children", i, product, nd.b)
			}
		case kindCustomCut:
			if err := checkChildren(i, nd); err != nil {
				return err
			}
			if nd.ndims >= rule.NumDims {
				return fmt.Errorf("node %d: custom cut dimension %d invalid", i, nd.ndims)
			}
			cutN := nd.b - 1 // boundary count is implied by the child count
			if cutN == 0 || uint64(nd.cut)+uint64(cutN) > nPoints {
				return fmt.Errorf("node %d: boundary span out of range", i)
			}
			dim := rule.Dimension(nd.ndims)
			prev := uint64(0)
			for k := uint32(0); k < cutN; k++ {
				p := c.cutPoints64[nd.cut+k]
				if k > 0 && p <= prev {
					return fmt.Errorf("node %d: boundaries not strictly increasing", i)
				}
				if p > dim.MaxValue() {
					return fmt.Errorf("node %d: boundary %d beyond %s's range", i, p, dim)
				}
				prev = p
			}
		case kindPartition:
			if err := checkChildren(i, nd); err != nil {
				return err
			}
		default:
			return fmt.Errorf("node %d: unknown kind %d", i, nd.kind)
		}
	}
	return nil
}
