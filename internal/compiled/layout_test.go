package compiled

import (
	"testing"
	"unsafe"

	"neurocuts/internal/classbench"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
)

// TestNodeLayout pins the hot-struct geometry the traversals are built
// around: a 32-byte node (two per cache line, so one line fill exposes every
// dispatch-relevant field), a 32-byte packed match record, and accounting
// constants that match the real struct sizes. A future field addition that
// silently fattens either struct fails here instead of quietly halving the
// nodes-per-line density.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != nodeBytes {
		t.Errorf("node size = %d bytes, layout pinned at %d", got, nodeBytes)
	}
	if got := unsafe.Alignof(node{}); got != 8 {
		t.Errorf("node alignment = %d, want 8", got)
	}
	if nodeLineAlign%nodeBytes != 0 {
		t.Errorf("node size %d does not pack the %d-byte line evenly", nodeBytes, nodeLineAlign)
	}
	if got := unsafe.Sizeof(rule.Packed{}); got != packedRuleBytes {
		t.Errorf("rule.Packed size = %d bytes, layout pinned at %d", got, packedRuleBytes)
	}
	if got := unsafe.Sizeof(cutDesc{}); got != cutDescBytes {
		t.Errorf("cutDesc size = %d bytes, accounting uses %d", got, cutDescBytes)
	}
}

// TestNodeSlabAlignment asserts alignNodeSlab really lands the slab on a
// cache-line boundary (Go slice allocations alone only guarantee 8) and
// preserves the node contents.
func TestNodeSlabAlignment(t *testing.T) {
	if got := alignNodeSlab(nil); got != nil {
		t.Errorf("empty slab should pass through, got %v", got)
	}
	for _, n := range []int{1, 2, 3, 17, 1024} {
		src := make([]node, n)
		for i := range src {
			src[i].a = uint32(i + 1)
			src[i].lo0 = uint64(i) << 32
		}
		slab := alignNodeSlab(src)
		if len(slab) != n {
			t.Fatalf("n=%d: slab length %d", n, len(slab))
		}
		if addr := uintptr(unsafe.Pointer(&slab[0])); addr%nodeLineAlign != 0 {
			t.Errorf("n=%d: slab at %#x not %d-byte aligned", n, addr, nodeLineAlign)
		}
		for i := range slab {
			if slab[i].a != uint32(i+1) || slab[i].lo0 != uint64(i)<<32 {
				t.Fatalf("n=%d: node %d corrupted by aligned copy", n, i)
			}
		}
	}
}

// TestLeafSpansIndexOrdered pins the property the early-exit leaf scan
// (scanLeaf, scalar and batch alike) depends on: every leaf's rule span is
// contiguous in the shared slab and strictly ascending by rule index.
// validate() enforces it on load; this test keeps the guarantee visible (and
// tested) against a real compiled tree.
func TestLeafSpansIndexOrdered(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 400, 3)
	tr, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.kind != kindLeaf {
			continue
		}
		leaves++
		for j := nd.a + 1; j < nd.a+nd.b; j++ {
			if c.leafRules[j] <= c.leafRules[j-1] {
				t.Fatalf("node %d: leaf span not ascending by rule index (%d after %d)", i, c.leafRules[j], c.leafRules[j-1])
			}
		}
	}
	if leaves == 0 {
		t.Fatal("compiled tree has no leaves")
	}
}

// TestValidateRejectsUnorderedLeaf pins the load-side half of the tie-order
// fix: a leaf span must ascend by rule index, not merely by priority, so an
// artifact whose tied-priority rules sit in a leaf against list order is
// refused instead of served with the wrong tie winner.
func TestValidateRejectsUnorderedLeaf(t *testing.T) {
	a, b := rule.NewWildcardRule(5), rule.NewWildcardRule(5)
	a.ID, b.ID = 1, 2
	c := &Classifier{
		rules: []rule.Rule{a, b},
		nodes: []node{{kind: kindLeaf, a: 0, b: 2}},
		roots: []uint32{0},
	}
	c.leafRules = []uint32{0, 1}
	if err := c.validate(); err != nil {
		t.Fatalf("list-ordered leaf rejected: %v", err)
	}
	for _, span := range [][]uint32{{1, 0}, {1, 1}} {
		c.leafRules = span
		if err := c.validate(); err == nil {
			t.Errorf("leaf span %v accepted, want an ascending-rule-index error", span)
		}
	}
}

// TestValidateRejectsSharedNodes pins the forest invariant: a node reached
// from two parents, or listed as a root twice, is refused. A slab with shared
// subtrees passes every span check, yet a chain of them makes one walk — a
// lookup, or Load's root-order probe — revisit nodes exponentially often.
func TestValidateRejectsSharedNodes(t *testing.T) {
	leaf := node{kind: kindLeaf, a: 0, b: 1}
	cases := []struct {
		name  string
		nodes []node
		roots []uint32
		ok    bool
	}{
		{"forest", []node{{kind: kindPartition, a: 2, b: 2}, leaf, leaf, leaf}, []uint32{0, 1}, true},
		{"shared child", []node{{kind: kindPartition, a: 1, b: 2}, {kind: kindPartition, a: 2, b: 2}, leaf, leaf}, []uint32{0}, false},
		{"root is a child", []node{{kind: kindPartition, a: 1, b: 2}, leaf, leaf}, []uint32{0, 2}, false},
		{"root twice", []node{leaf}, []uint32{0, 0}, false},
	}
	for _, tc := range cases {
		c := &Classifier{
			rules:     []rule.Rule{rule.NewWildcardRule(0)},
			leafRules: []uint32{0},
			nodes:     tc.nodes,
			roots:     tc.roots,
		}
		if err := c.validate(); (err == nil) != tc.ok {
			t.Errorf("%s: validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
