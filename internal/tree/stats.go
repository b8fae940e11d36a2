package tree

import "neurocuts/internal/rule"

// Memory cost model, shared by every algorithm so that bytes-per-rule is
// comparable across trees. The constants follow the accounting used by the
// HiCuts/EffiCuts line of work: an internal node stores a small fixed header
// (region boundaries, cut description) plus one pointer per child; a leaf
// stores a header plus one rule pointer per rule it holds (so rule
// replication is what drives the metric up). The model is the paper's, not
// this package's own layout: a node's rule list here holds 4-byte positions.
const (
	// NodeHeaderBytes is charged once per tree node.
	NodeHeaderBytes = 16
	// ChildPointerBytes is charged per child of an internal node.
	ChildPointerBytes = 4
	// RulePointerBytes is charged per rule reference stored in a leaf.
	RulePointerBytes = 8
)

// Metrics summarises a (complete or partial) decision tree.
type Metrics struct {
	// ClassificationTime is the worst-case number of node visits for a
	// lookup, computed with the paper's Equations 1 and 3: max over children
	// of a cut node, sum over children of a partition node.
	ClassificationTime int
	// MemoryBytes is the total size of the tree under the cost model above
	// (Equations 2 and 4: sum over children for both node kinds).
	MemoryBytes int
	// BytesPerRule is MemoryBytes divided by the classifier size.
	BytesPerRule float64
	// Nodes and Leaves count the tree's nodes.
	Nodes  int
	Leaves int
	// MaxDepth is the deepest node's depth.
	MaxDepth int
	// MaxLeafRules is the largest number of rules held by any leaf.
	MaxLeafRules int
	// UnfinishedLeaves counts the leaves still holding more than Binth rules:
	// none in a complete tree, the leaves a truncated rollout left behind
	// otherwise. ClassificationTime charges such a leaf one visit like any
	// other, while a lookup scans its whole list.
	UnfinishedLeaves int
	// RuleRefs is the total number of rule references stored in leaves
	// (RuleRefs / classifier size is the replication factor).
	RuleRefs int
}

// ComputeMetrics walks the tree once and returns its Metrics.
func (t *Tree) ComputeMetrics() Metrics {
	var m Metrics
	m.ClassificationTime = t.Time(t.Root)
	m.MemoryBytes = t.Space(t.Root)
	if t.RuleCount > 0 {
		m.BytesPerRule = float64(m.MemoryBytes) / float64(t.RuleCount)
	}
	t.Walk(func(n *Node) bool {
		m.Nodes++
		if n.Depth > m.MaxDepth {
			m.MaxDepth = n.Depth
		}
		if n.IsLeaf() {
			m.Leaves++
			m.RuleRefs += len(n.Rules)
			if len(n.Rules) > m.MaxLeafRules {
				m.MaxLeafRules = len(n.Rules)
			}
			if !t.IsTerminal(n) {
				m.UnfinishedLeaves++
			}
		}
		return true
	})
	return m
}

// Time returns the worst-case classification time (node visits) of the
// subtree rooted at n, following Equation 1 (cut: t_n plus the max over
// children) and Equation 3 (partition: t_n plus the sum over children).
// Leaves cost one visit.
func (t *Tree) Time(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	switch n.Kind {
	case KindCut:
		max := 0
		for _, c := range n.Children {
			if v := t.Time(c); v > max {
				max = v
			}
		}
		return 1 + max
	default: // KindPartition
		sum := 0
		for _, c := range n.Children {
			sum += t.Time(c)
		}
		return 1 + sum
	}
}

// Space returns the memory footprint in bytes of the subtree rooted at n,
// following Equations 2 and 4 (sum over children for both action kinds) and
// the cost model constants above.
func (t *Tree) Space(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return NodeHeaderBytes + RulePointerBytes*len(n.Rules)
	}
	total := NodeHeaderBytes + ChildPointerBytes*len(n.Children)
	for _, c := range n.Children {
		total += t.Space(c)
	}
	return total
}

// MultiMetrics combines the metrics of several trees that jointly implement
// one classifier (the EffiCuts / rule-partition setting where a packet is
// looked up in every tree): classification time adds up, memory adds up, and
// bytes-per-rule uses the total rule count.
func MultiMetrics(trees []*Tree) Metrics {
	var m Metrics
	ruleCount := 0
	for _, t := range trees {
		tm := t.ComputeMetrics()
		m.ClassificationTime += tm.ClassificationTime
		m.MemoryBytes += tm.MemoryBytes
		m.Nodes += tm.Nodes
		m.Leaves += tm.Leaves
		m.RuleRefs += tm.RuleRefs
		m.UnfinishedLeaves += tm.UnfinishedLeaves
		if tm.MaxDepth > m.MaxDepth {
			m.MaxDepth = tm.MaxDepth
		}
		if tm.MaxLeafRules > m.MaxLeafRules {
			m.MaxLeafRules = tm.MaxLeafRules
		}
		ruleCount += t.RuleCount
	}
	if ruleCount > 0 {
		m.BytesPerRule = float64(m.MemoryBytes) / float64(ruleCount)
	}
	return m
}

// ClassifyMulti looks a packet up in every tree and returns the best
// (lowest-priority-value) match across them, as required when the classifier
// was split into per-partition trees.
func ClassifyMulti(trees []*Tree, p rule.Packet) (rule.Rule, bool) {
	var best rule.Rule
	found := false
	for _, t := range trees {
		if r, ok := t.Classify(p); ok {
			if !found || r.Priority < best.Priority {
				best = r
				found = true
			}
		}
	}
	return best, found
}
