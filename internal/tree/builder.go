package tree

import (
	"fmt"

	"neurocuts/internal/rule"
)

// Builder drives the incremental, depth-first construction of a decision
// tree one node at a time. This is the interface the NeuroCuts environment
// uses: GrowTreeDFS in Algorithm 1 maps to Current / Apply* / advance here.
// The baselines use it too, which keeps every algorithm on the same code
// path for node expansion and termination.
type Builder struct {
	tree *Tree
	// stack holds nodes awaiting processing in DFS order (top = next).
	stack []*Node
	// steps counts how many actions have been applied.
	steps int
}

// NewBuilder creates a builder over a fresh tree for the classifier.
func NewBuilder(s *rule.Set, binth int) *Builder {
	t := New(s, binth)
	b := &Builder{tree: t}
	if !t.IsTerminal(t.Root) {
		b.stack = append(b.stack, t.Root)
	}
	return b
}

// Tree returns the tree under construction.
func (b *Builder) Tree() *Tree { return b.tree }

// Steps returns how many actions have been applied so far.
func (b *Builder) Steps() int { return b.steps }

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

// Pending returns how many non-terminal leaves are queued for expansion.
func (b *Builder) Pending() int { return len(b.stack) }

// ApplyCut expands the current node with a single-dimension cut and advances
// to the next non-terminal leaf.
func (b *Builder) ApplyCut(dim rule.Dimension, k int) error {
	n := b.Current()
	if n == nil {
		return fmt.Errorf("tree: builder is done")
	}
	children, err := b.tree.Cut(n, dim, k)
	if err != nil {
		return err
	}
	b.advance(children)
	return nil
}

// ApplyPartition expands the current node with an explicit rule partition.
func (b *Builder) ApplyPartition(groups [][]int32, labels []string) error {
	n := b.Current()
	if n == nil {
		return fmt.Errorf("tree: builder is done")
	}
	children, err := b.tree.Partition(n, groups, labels)
	if err != nil {
		return err
	}
	b.advance(children)
	return nil
}

// ApplyPartitionByCoverage expands the current node with the simple
// coverage-threshold partition.
func (b *Builder) ApplyPartitionByCoverage(dim rule.Dimension, threshold float64) error {
	n := b.Current()
	if n == nil {
		return fmt.Errorf("tree: builder is done")
	}
	children, err := b.tree.PartitionByCoverage(n, dim, threshold)
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
	b.steps++
	b.stack = b.stack[:len(b.stack)-1]
	for i := len(children) - 1; i >= 0; i-- {
		if !b.tree.IsTerminal(children[i]) {
			b.stack = append(b.stack, children[i])
		}
	}
}
