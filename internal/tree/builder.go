package tree

import (
	"fmt"
	"slices"

	"neurocuts/internal/rule"
)

// Builder drives the incremental, depth-first construction of a decision
// tree one node at a time. This is the interface the NeuroCuts environment
// uses: GrowTreeDFS in Algorithm 1 maps to Current / Apply* / advance here.
// Grow runs the hand-tuned heuristics on the same stack, so every algorithm
// expands nodes in the same order.
type Builder struct {
	tree *Tree
	// stack holds nodes awaiting processing in DFS order (top = next).
	stack []*Node
}

// NewBuilder creates a builder over a fresh tree for the classifier.
func NewBuilder(s *rule.Set, binth int) *Builder {
	t := New(s, binth)
	return builderAt(t, t.Root)
}

// builderAt creates a builder that expands n's subtree of t.
func builderAt(t *Tree, n *Node) *Builder {
	b := &Builder{tree: t}
	if !t.IsTerminal(n) {
		b.stack = append(b.stack, n)
	}
	return b
}

// Grow expands n and its descendants depth-first, in the order a Builder
// takes them, asking cut for the children of every node that needs
// expanding. Grow owns the termination rules every heuristic shares:
//   - a node within the leaf threshold stays a leaf;
//   - a node at maxDepth or deeper stays a leaf (when maxDepth > 0), and cut
//     is not called for it;
//   - nil children from cut accept the node as an oversized leaf;
//   - when no child holds fewer rules than the node, the node keeps its
//     children but none of them is expanded: cuts below cannot make
//     progress either.
//
// A cut error stops the build and is returned as is.
func Grow(t *Tree, n *Node, maxDepth int, cut func(*Node) ([]*Node, error)) error {
	b := builderAt(t, n)
	for cur := b.Current(); cur != nil; cur = b.Current() {
		if maxDepth > 0 && cur.Depth >= maxDepth {
			b.Skip()
			continue
		}
		children, err := cut(cur)
		if err != nil {
			return err
		}
		if !slices.ContainsFunc(children, func(c *Node) bool { return c.NumRules() < cur.NumRules() }) {
			b.Skip()
			continue
		}
		b.advance(children)
	}
	return nil
}

// Tree returns the tree under construction.
func (b *Builder) Tree() *Tree { return b.tree }

// Done reports whether every remaining leaf satisfies the leaf threshold.
func (b *Builder) Done() bool { return len(b.stack) == 0 }

// Current returns the next non-terminal leaf to expand (in DFS order), or
// nil when the tree is complete.
func (b *Builder) Current() *Node {
	if len(b.stack) == 0 {
		return nil
	}
	return b.stack[len(b.stack)-1]
}

// ApplyCut expands the current node with a single-dimension cut and advances
// to the next non-terminal leaf.
func (b *Builder) ApplyCut(dim rule.Dimension, k int) error {
	return b.apply(func(n *Node) ([]*Node, error) { return b.tree.Cut(n, dim, k) })
}

// ApplyPartition expands the current node with an explicit rule partition.
func (b *Builder) ApplyPartition(groups [][]int32, labels []string) error {
	return b.apply(func(n *Node) ([]*Node, error) { return b.tree.Partition(n, groups, labels) })
}

// ApplyPartitionByCoverage expands the current node with the simple
// coverage-threshold partition.
func (b *Builder) ApplyPartitionByCoverage(dim rule.Dimension, threshold float64) error {
	return b.apply(func(n *Node) ([]*Node, error) { return b.tree.PartitionByCoverage(n, dim, threshold) })
}

// apply expands the current node with expand and advances past it.
func (b *Builder) apply(expand func(*Node) ([]*Node, error)) error {
	n := b.Current()
	if n == nil {
		return fmt.Errorf("tree: builder is done")
	}
	children, err := expand(n)
	if err != nil {
		return err
	}
	b.advance(children)
	return nil
}

// Skip marks the current node as accepted as-is (an oversized leaf) and
// moves on. The environment uses this when a rollout is truncated.
func (b *Builder) Skip() {
	if len(b.stack) == 0 {
		return
	}
	b.stack = b.stack[:len(b.stack)-1]
}

// advance pops the expanded node and pushes its non-terminal children in
// reverse order so that the first child is processed next (depth-first).
func (b *Builder) advance(children []*Node) {
	b.stack = b.stack[:len(b.stack)-1]
	for i := len(children) - 1; i >= 0; i-- {
		if !b.tree.IsTerminal(children[i]) {
			b.stack = append(b.stack, children[i])
		}
	}
}
