package core

import (
	"fmt"
	"slices"
	"sort"

	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// This file implements the classifier-update handling described in Section 4
// of the paper: small updates (a few rules added or removed) are applied to
// the existing decision tree in place — new rules are inserted according to
// the existing structure and deleted rules are removed from the leaves —
// while large or accumulated updates trigger retraining.

// Updater applies incremental rule updates to a trained tree and tracks when
// enough updates have accumulated that retraining is recommended.
type Updater struct {
	// Tree is the decision tree being maintained.
	Tree *tree.Tree
	// RetrainThreshold is the number of applied updates after which
	// NeedsRetrain reports true (the paper retrains "when enough small
	// updates accumulate").
	RetrainThreshold int

	updates int
}

// NewUpdater wraps a tree. threshold <= 0 selects a default of 10% of the
// classifier size (at least 1).
func NewUpdater(t *tree.Tree, threshold int) *Updater {
	if threshold <= 0 {
		threshold = t.RuleCount / 10
		if threshold < 1 {
			threshold = 1
		}
	}
	return &Updater{Tree: t, RetrainThreshold: threshold}
}

// Updates returns the number of updates applied since the tree was built.
func (u *Updater) Updates() int { return u.updates }

// NeedsRetrain reports whether enough updates have accumulated that the
// caller should re-run training on the updated classifier.
func (u *Updater) NeedsRetrain() bool { return u.updates >= u.RetrainThreshold }

// InsertRule adds a rule to the existing tree structure: the rule takes the
// place its Priority gives it in the tree's rule list (after any rule of
// equal Priority) and is pushed into every leaf whose box it overlaps,
// keeping each leaf's rule list in priority order. The tree's rule count
// grows by one.
func (u *Updater) InsertRule(r rule.Rule) error {
	if u.Tree == nil || u.Tree.Root == nil {
		return fmt.Errorf("core: updater has no tree")
	}
	t := u.Tree
	if !r.OverlapsBox(t.Root.Box) {
		return fmt.Errorf("core: rule %v does not overlap the tree's root box", r)
	}
	// Node rule lists are positions in t.Rules, so making room at pos moves
	// every later reference up by one. The list itself belongs to the
	// classifier the tree was built over; the tree gets its own copy.
	pos := sort.Search(len(t.Rules), func(i int) bool { return t.Rules[i].Priority > r.Priority })
	t.Rules = slices.Insert(slices.Clone(t.Rules), pos, r)
	t.Walk(func(n *tree.Node) bool {
		for i, ri := range n.Rules {
			if int(ri) >= pos {
				n.Rules[i]++
			}
		}
		return true
	})
	insertIntoSubtree(t, t.Root, int32(pos))
	t.RuleCount++
	u.updates++
	return nil
}

// insertIntoSubtree inserts the rule at position pos of the tree's list into
// every overlapping leaf below n and reports whether at least one leaf
// received it.
func insertIntoSubtree(t *tree.Tree, n *tree.Node, pos int32) bool {
	if !t.Rules[pos].OverlapsBox(n.Box) {
		return false
	}
	if n.IsLeaf() {
		at, _ := slices.BinarySearch(n.Rules, pos)
		n.Rules = slices.Insert(n.Rules, at, pos)
		return true
	}
	if n.Kind == tree.KindPartition {
		// Rules of a partition node are split into disjoint groups; placing
		// the new rule in a single group keeps classification correct
		// because every group is consulted during lookup. Choose the child
		// with the fewest rule references to keep the partition balanced.
		best := -1
		bestRefs := 0
		for i, c := range n.Children {
			refs := countRuleRefs(c)
			if best < 0 || refs < bestRefs {
				best, bestRefs = i, refs
			}
		}
		if best < 0 {
			return false
		}
		return insertIntoSubtree(t, n.Children[best], pos)
	}
	// Cut node: descend into every overlapping child.
	any := false
	for _, c := range n.Children {
		if insertIntoSubtree(t, c, pos) {
			any = true
		}
	}
	return any
}

func countRuleRefs(n *tree.Node) int {
	total := 0
	if n.IsLeaf() {
		return len(n.Rules)
	}
	for _, c := range n.Children {
		total += countRuleRefs(c)
	}
	return total
}

// RemoveRule deletes every stored copy of the rules selected by match from
// the tree's leaves and returns the number of distinct priorities removed.
// The tree's rule count shrinks accordingly.
func (u *Updater) RemoveRule(match func(rule.Rule) bool) int {
	if u.Tree == nil || u.Tree.Root == nil {
		return 0
	}
	removedPriorities := map[int]struct{}{}
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		if n.IsLeaf() {
			kept := n.Rules[:0]
			for _, ri := range n.Rules {
				if r := u.Tree.Rules[ri]; match(r) {
					removedPriorities[r.Priority] = struct{}{}
					continue
				}
				kept = append(kept, ri)
			}
			n.Rules = kept
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(u.Tree.Root)
	if len(removedPriorities) > 0 {
		u.Tree.RuleCount -= len(removedPriorities)
		if u.Tree.RuleCount < 0 {
			u.Tree.RuleCount = 0
		}
		u.updates += len(removedPriorities)
	}
	return len(removedPriorities)
}

// RemoveByPriority removes the rule with the given priority value.
func (u *Updater) RemoveByPriority(priority int) int {
	return u.RemoveRule(func(r rule.Rule) bool { return r.Priority == priority })
}
