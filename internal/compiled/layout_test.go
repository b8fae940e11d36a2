package compiled

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"neurocuts/internal/classbench"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// TestNodeLayout pins the hot-struct geometry the traversals are built
// around: a 16-byte node (four per cache line, so one line fill exposes every
// dispatch-relevant field of a node), a 32-byte packed match record, and
// accounting constants that match the real struct sizes. A future field
// addition that silently fattens either struct fails here instead of quietly
// halving the nodes-per-line density.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 16 || nodeBytes != 16 {
		t.Errorf("node size = %d bytes, accounting uses %d, layout pinned at 16", got, nodeBytes)
	}
	if got := unsafe.Alignof(node{}); got != 4 {
		t.Errorf("node alignment = %d, want 4", got)
	}
	if nodeLineAlign%nodeBytes != 0 || nodeLineAlign/nodeBytes != 4 {
		t.Errorf("node size %d does not pack the %d-byte line four to a line", nodeBytes, nodeLineAlign)
	}
	if got := unsafe.Sizeof(rule.Packed{}); got != packedRuleBytes {
		t.Errorf("rule.Packed size = %d bytes, layout pinned at %d", got, packedRuleBytes)
	}
	if got := unsafe.Sizeof(cutDesc{}); got != cutDescBytes {
		t.Errorf("cutDesc size = %d bytes, accounting uses %d", got, cutDescBytes)
	}
}

// TestNodeSlabAlignment asserts makeNodeSlab really lands the slab on a
// cache-line boundary (Go slice allocations alone only guarantee 4 for a
// node) and hands out n zeroed nodes that do not overlap.
func TestNodeSlabAlignment(t *testing.T) {
	if got := makeNodeSlab(0); got != nil {
		t.Errorf("empty slab should be nil, got %v", got)
	}
	for _, n := range []int{1, 2, 3, 17, 1024} {
		slab := makeNodeSlab(n)
		if len(slab) != n {
			t.Fatalf("n=%d: slab length %d", n, len(slab))
		}
		if addr := uintptr(unsafe.Pointer(&slab[0])); addr%nodeLineAlign != 0 {
			t.Errorf("n=%d: slab at %#x not %d-byte aligned", n, addr, nodeLineAlign)
		}
		for i := range slab {
			if slab[i] != (node{}) {
				t.Fatalf("n=%d: node %d not zeroed", n, i)
			}
			slab[i] = node{a: uint32(i + 1), step: ^uint32(i)}
		}
		for i := range slab {
			if slab[i] != (node{a: uint32(i + 1), step: ^uint32(i)}) {
				t.Fatalf("n=%d: node %d overwritten by a neighbour", n, i)
			}
		}
	}
}

// TestNodeHeaderBound pins what a node's b word holds: kind, dimension and
// a count up to 2^26-1 come back as packed, and a count of 2^26 is refused
// by packB and by validate, which Compile and Load both run, before any span
// check that would need that many nodes to pass.
func TestNodeHeaderBound(t *testing.T) {
	for _, kind := range []uint8{kindLeaf, kindCut, kindCustomCut, kindPartition, kindDescCut} {
		for dim := uint8(0); dim <= rule.NumDims; dim++ {
			for _, count := range []uint32{0, 1, countMask} {
				b, err := packB(kind, dim, count)
				nd := node{b: b}
				if err != nil || nd.kind() != kind || nd.dim() != dim || nd.count() != count {
					t.Fatalf("packB(%d, %d, %d) = %#x, %v: reads kind %d, dimension %d, count %d",
						kind, dim, count, b, err, nd.kind(), nd.dim(), nd.count())
				}
			}
		}
	}
	if countMask != 1<<26-1 {
		t.Errorf("count mask %#x, want 26 bits", countMask)
	}
	if _, err := packB(kindPartition, 0, 1<<26); err == nil {
		t.Error("packB took a count of 2^26")
	}
	c := &Classifier{
		rules:      []rule.Rule{rule.NewWildcardRule(0)},
		leafRules:  []uint32{0},
		canonNodes: []canonNode{{kind: kindPartition, a: 1, b: 1 << 26}, {kind: kindLeaf, a: 0, b: 1}},
		roots:      []uint32{0},
	}
	if err := c.validate(); err == nil || !strings.Contains(err.Error(), "node header") {
		t.Errorf("validate of a node with 2^26 children: %v, want a node header error", err)
	}
}

// TestLeafSpansIndexOrdered pins the property the early-exit leaf scan
// (scanRefs, scalar and batch alike) depends on: every leaf's rule span is
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
		if nd.kind() != kindLeaf {
			continue
		}
		leaves++
		span := c.appendLeaf(nil, nd.a, nd.count())
		for j := 1; j < len(span); j++ {
			if span[j] <= span[j-1] {
				t.Fatalf("node %d: leaf span not ascending by rule index (%d after %d)", i, span[j], span[j-1])
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
		rules:      []rule.Rule{a, b},
		canonNodes: []canonNode{{kind: kindLeaf, a: 0, b: 2}},
		roots:      []uint32{0},
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
	leaf := canonNode{kind: kindLeaf, a: 0, b: 1}
	cases := []struct {
		name  string
		nodes []canonNode
		roots []uint32
		ok    bool
	}{
		{"forest", []canonNode{{kind: kindPartition, a: 2, b: 2}, leaf, leaf, leaf}, []uint32{0, 1}, true},
		{"shared child", []canonNode{{kind: kindPartition, a: 1, b: 2}, {kind: kindPartition, a: 2, b: 2}, leaf, leaf}, []uint32{0}, false},
		{"root is a child", []canonNode{{kind: kindPartition, a: 1, b: 2}, leaf, leaf}, []uint32{0, 2}, false},
		{"root twice", []canonNode{leaf}, []uint32{0, 0}, false},
	}
	for _, tc := range cases {
		c := &Classifier{
			rules:      []rule.Rule{rule.NewWildcardRule(0)},
			leafRules:  []uint32{0},
			canonNodes: tc.nodes,
			roots:      tc.roots,
		}
		if err := c.validate(); (err == nil) != tc.ok {
			t.Errorf("%s: validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// compileHiCuts compiles the HiCuts tree over the first n rules of acl1
// (generator seed 1, as the golden trees are built).
func compileHiCuts(t *testing.T, n int) (*Classifier, *rule.Set) {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, n, 1)
	tr, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	return c, set
}

// TestShareLeafSpansKeepsDistinctLists pins what shareLeafSpans merges:
// equal lists only. Lists that differ in one rule, or only in length (a
// prefix, a suffix), keep their own copies; a repeat reads its first copy.
// Every ascending pair and triple of 16 rules is listed twice. Under the
// real hash each distinct list is stored exactly once; under a hash that is
// the list's length, every list collides with all others of its length, and
// only the element-by-element check keeps them apart.
func TestShareLeafSpansKeepsDistinctLists(t *testing.T) {
	lists := [][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 1}, {0, 1, 2}, {1, 2}, {}, {0, 1, 3}, {}}
	for x := uint32(0); x < 16; x++ {
		for y := x + 1; y < 16; y++ {
			lists = append(lists, []uint32{x, y}, []uint32{x, y})
			for z := y + 1; z < 16; z++ {
				lists = append(lists, []uint32{x, y, z}, []uint32{x, y, z})
			}
		}
	}
	share := func(hash func([]uint32) uint64) *Classifier {
		c := &Classifier{canonNodes: []canonNode{{kind: kindPartition, a: 1, b: uint32(len(lists))}}}
		for _, l := range lists {
			c.canonNodes = append(c.canonNodes, canonNode{kind: kindLeaf, a: uint32(len(c.leafRules)), b: uint32(len(l))})
			c.leafRules = append(c.leafRules, l...)
		}
		c.shareLeafSpans(hash)
		for i, l := range lists {
			nd := &c.canonNodes[1+i]
			if got := c.appendLeaf(nil, nd.a, nd.b); !slices.Equal(got, l) {
				t.Fatalf("leaf %d reads %v, holds %v", i, got, l)
			}
		}
		return c
	}

	c := share(spanHash())
	first := map[string]uint32{}
	distinct := 0
	for i, l := range lists {
		nd := &c.canonNodes[1+i]
		key := fmt.Sprint(l)
		if a, ok := first[key]; ok && len(l) > 0 && a != nd.a {
			t.Errorf("list %v stored twice (spans at %d and %d)", l, a, nd.a)
		} else if !ok {
			first[key] = nd.a
			distinct += len(l)
		}
	}
	if len(c.leafRules16) != distinct || cap(c.leafRules16) != distinct || c.leafRules != nil {
		t.Errorf("16-bit slab holds %d refs (capacity %d, 32-bit slab %d), want the %d of the distinct lists",
			len(c.leafRules16), cap(c.leafRules16), len(c.leafRules), distinct)
	}

	share(func(span []uint32) uint64 { return uint64(len(span)) })
}

// TestLoadSharedSpansArtifact feeds Load an artifact edited by hand so that
// its leaves share spans — every repeat points at one copy, and every
// one-rule leaf at the first occurrence of its rule, inside another leaf's
// list. It must load to the compiled classifier's own slabs, answer like
// linear search, and save back to the canonical bytes.
func TestLoadSharedSpansArtifact(t *testing.T) {
	c, set := compileHiCuts(t, 1000)
	meta := Metadata{Backend: "hicuts", Rules: set.Len()}
	var canon bytes.Buffer
	if err := Save(&canon, c, meta); err != nil {
		t.Fatal(err)
	}

	e, err := c.canonical()
	if err != nil {
		t.Fatal(err)
	}
	e.leafRules = make([]uint32, len(c.leafRules16))
	for i, ri := range c.leafRules16 {
		e.leafRules[i] = uint32(ri)
	}
	overlaps := 0
	for i := range e.canonNodes {
		nd := &e.canonNodes[i]
		if nd.kind != kindLeaf {
			continue
		}
		nd.a = c.nodes[i].a
		if nd.b == 1 {
			if p := slices.Index(e.leafRules, e.leafRules[nd.a]); p != int(nd.a) {
				nd.a = uint32(p)
				overlaps++
			}
		}
	}
	if overlaps == 0 || len(e.leafRules) >= c.stats.LeafRuleRefs {
		t.Fatalf("edited artifact shares nothing (%d overlapping leaves, %d of %d refs stored)", overlaps, len(e.leafRules), c.stats.LeafRuleRefs)
	}
	var edited bytes.Buffer
	if err := encode(&edited, e, meta); err != nil {
		t.Fatal(err)
	}
	l, _, err := LoadBytes(edited.Bytes())
	if err != nil {
		t.Fatalf("hand-shared artifact refused: %v", err)
	}
	if !slices.Equal(l.leafRules16, c.leafRules16) || !slices.Equal(l.nodes, c.nodes) {
		t.Error("hand-shared artifact loads to other slabs than the compiled classifier's")
	}
	for _, p := range classbench.GenerateTrace(set, 5000, 2) {
		if got, want := l.LookupIndex(p.Key), set.MatchIndex(p.Key); got != want {
			t.Fatalf("packet %v: loaded %d, linear search %d", p.Key, got, want)
		}
	}
	var again bytes.Buffer
	if err := Save(&again, l, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), canon.Bytes()) {
		t.Error("hand-shared artifact saves back to other bytes than the canonical ones")
	}
}

// TestLeafRefWidthFollowsRuleCount serves the two tables on either side of
// the 16-bit bound, each as one root leaf of every acl1 rule: 65 536 rules
// from 16-bit references, 65 537 from 32-bit ones. The acl1 generator ends
// each table with a catch-all, which wins every uniformly random packet, so
// a 65 537-rule table read through 16 bits would answer them with rule 0.
// Both tables answer a trace like linear search, and Save(Load(Save(c)))
// is Save(c).
func TestLeafRefWidthFollowsRuleCount(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{maxNarrowRules, maxNarrowRules + 1} {
		set := classbench.Generate(fam, n, 1)
		c, err := Compile(set, tree.New(set, 16))
		if err != nil {
			t.Fatal(err)
		}
		if wide := n > maxNarrowRules; wide != (c.leafRules16 == nil) || len(c.leafRules)+len(c.leafRules16) != n {
			t.Fatalf("%d rules: served from %d 16-bit and %d 32-bit references", n, len(c.leafRules16), len(c.leafRules))
		}

		var ps []rule.Packet
		for _, e := range classbench.GenerateTrace(set, 64, 2) {
			ps = append(ps, e.Key)
		}
		rng := rand.New(rand.NewSource(3))
		for range 16 {
			ps = append(ps, rule.Packet{SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: uint8(rng.Uint32())})
		}
		got := make([]int32, len(ps))
		c.LookupBatch(ps, got)
		for i, p := range ps {
			if want := set.MatchIndex(p); c.LookupIndex(p) != want || int(got[i]) != want {
				t.Fatalf("%d rules, packet %v: scalar %d, batch %d, linear search %d", n, p, c.LookupIndex(p), got[i], want)
			}
		}

		meta := Metadata{Backend: "linear", Rules: n}
		var first, second bytes.Buffer
		if err := Save(&first, c, meta); err != nil {
			t.Fatal(err)
		}
		l, _, err := LoadBytes(first.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := Save(&second, l, meta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%d rules: Save(Load(Save(c))) differs from Save(c)", n)
		}
	}
}

// TestSharedSpansShrinkHiCuts10k pins the saving on the acl1 HiCuts 10k
// table: the serving form's leaf spans and cut geometry, with shared 16-bit
// leaf spans and no single-dimension cut descriptors, take at least 28 bytes
// per rule less than the canonical layout's 32-bit leaf spans and 24-byte
// descriptors (35.70 → 7.59 B/rule); it keeps no cut geometry at all, since
// every HiCuts cut is over one dimension with a step that fits its node; and
// its nodes take 16 bytes each (25.06 B/rule with the root, 50.13 at 32
// bytes a node).
func TestSharedSpansShrinkHiCuts10k(t *testing.T) {
	c, set := compileHiCuts(t, 10000)
	k, err := c.canonical()
	if err != nil {
		t.Fatal(err)
	}
	perRule := func(bytes int) float64 { return float64(bytes) / float64(set.Len()) }
	canon := perRule(sliceBytes(k.leafRules) + sliceBytes(k.cutDescs) + sliceBytes(k.cutPoints64))
	served := perRule(c.stats.LeafSpanBytes + c.stats.CutBytes)
	t.Logf("acl1 HiCuts 10k: leaf spans and cut geometry %.2f B/rule canonical, %.2f served; nodes %.2f B/rule served, %.2f at 32 bytes a node",
		canon, served, perRule(c.stats.NodeBytes), perRule(len(c.nodes)*32+len(c.roots)*4))
	if canon-served < 28 {
		t.Errorf("serving form saves %.2f B/rule over the canonical layout, want at least 28", canon-served)
	}
	if len(c.cutDescs) != 0 || len(k.cutDescs) == 0 {
		t.Errorf("serving form keeps %d cut descriptors of single-dimension cuts (canonical %d)", len(c.cutDescs), len(k.cutDescs))
	}
	if c.stats.NodeBytes != 16*len(c.nodes)+4*len(c.roots) {
		t.Errorf("node bytes %d for %d nodes and %d roots, want 16 a node", c.stats.NodeBytes, len(c.nodes), len(c.roots))
	}
}

// TestSaveKeepsZeroStep checks the single-dimension cuts that keep their
// descriptor, because their step does not fit a node's 32-bit word: a step
// of 2^32, which Compile emits for a fan-out-1 cut over the whole SrcIP
// field, and a step of 0, which only an artifact holds and normStep serves
// as MaxUint64. The acl1 HiCuts 1k tree under such a root cut is served
// from the cut's descriptor, answers like linear search, scalar and
// batched, on a trace and on packets at the ends of every field's range,
// and its artifact saves back to its own bytes after Load.
func TestSaveKeepsZeroStep(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 1000, 1)
	tr, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root
	tr.Root = &tree.Node{Box: root.Box, Rules: root.Rules, Kind: tree.KindCut,
		CutDims: []rule.Dimension{rule.DimSrcIP}, CutCounts: []int{1}, Children: []*tree.Node{root}}
	c, err := Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	k, err := c.canonical()
	if err != nil {
		t.Fatal(err)
	}
	d := &k.cutDescs[k.canonNodes[0].cut]
	if d.step != 1<<32 || d.count != 1 || d.dim != uint8(rule.DimSrcIP) || c.nodes[0].kind() != kindDescCut {
		t.Fatalf("root cut compiled to %+v, served as kind %d; want a fan-out-1 SrcIP cut of step 2^32 served from its descriptor",
			*d, c.nodes[0].kind())
	}

	var ps []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 4096, 2) {
		ps = append(ps, e.Key)
	}
	for ends := range 1 << rule.NumDims {
		var p rule.Packet
		if ends&1 != 0 {
			p.SrcIP = ^uint32(0)
		}
		if ends&2 != 0 {
			p.DstIP = ^uint32(0)
		}
		if ends&4 != 0 {
			p.SrcPort = ^uint16(0)
		}
		if ends&8 != 0 {
			p.DstPort = ^uint16(0)
		}
		if ends&16 != 0 {
			p.Proto = ^uint8(0)
		}
		ps = append(ps, p)
	}
	got := make([]int32, len(ps))
	meta := Metadata{Backend: "hicuts", Rules: set.Len()}
	for _, step := range []uint64{1 << 32, 0} {
		d.step = step
		var art bytes.Buffer
		if err := encode(&art, k, meta); err != nil {
			t.Fatal(err)
		}
		l, _, err := LoadBytes(art.Bytes())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if l.nodes[0].kind() != kindDescCut || len(l.cutDescs) != 1 {
			t.Errorf("step %d: root served as kind %d with %d descriptors, want from its one descriptor",
				step, l.nodes[0].kind(), len(l.cutDescs))
		}
		l.LookupBatch(ps, got)
		for i, p := range ps {
			if want := set.MatchIndex(p); l.LookupIndex(p) != want || int(got[i]) != want {
				t.Fatalf("step %d, packet %v: scalar %d, batch %d, linear search %d", step, p, l.LookupIndex(p), got[i], want)
			}
		}
		var again bytes.Buffer
		if err := Save(&again, l, meta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), art.Bytes()) {
			t.Errorf("a cut step of %d does not survive Load and Save", step)
		}
	}
}

// mustPackB is packB for a count the test knows fits.
func mustPackB(t *testing.T, kind uint8, count uint32) uint32 {
	t.Helper()
	b, err := packB(kind, 0, count)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSaveRefusesOversizedCanonical checks Save's bound on a classifier
// whose leaves share one span more often than an artifact could spell out:
// it errors before allocating the canonical slab.
func TestSaveRefusesOversizedCanonical(t *testing.T) {
	const rules, leaves = 1 << 12, 1<<16 + 1 // 4 B * 2^12 * (2^16+1) > 1 GiB
	c := &Classifier{
		nodes:     []node{{a: 1, b: mustPackB(t, kindPartition, leaves)}},
		leafRules: make([]uint32, rules),
		roots:     []uint32{0},
	}
	for range leaves {
		c.nodes = append(c.nodes, node{a: 0, b: mustPackB(t, kindLeaf, rules)})
	}
	if err := Save(&bytes.Buffer{}, c, Metadata{}); err == nil {
		t.Fatal("Save spelled out a canonical slab beyond the artifact limit")
	}
}

// TestLoadRefusesOversizedCanonical feeds Load a small artifact, edited by
// hand, whose leaves all read one span of every rule: a few megabytes that
// spell more leaf rule references than an artifact can hold. Load refuses
// it, as Save would refuse to write it, before validating the leaves or
// deriving a slab from them. Sixteen such leaves load to a slab of one copy
// of the list.
func TestLoadRefusesOversizedCanonical(t *testing.T) {
	const rules = 1 << 12
	rs := make([]rule.Rule, rules)
	for i := range rs {
		rs[i] = rule.NewWildcardRule(i)
	}
	artifact := func(leaves int) []byte {
		c := &Classifier{
			rules:      rs,
			canonNodes: []canonNode{{kind: kindPartition, a: 1, b: uint32(leaves)}},
			leafRules:  make([]uint32, rules),
			roots:      []uint32{0},
		}
		for i := range c.leafRules {
			c.leafRules[i] = uint32(i)
		}
		for range leaves {
			c.canonNodes = append(c.canonNodes, canonNode{kind: kindLeaf, a: 0, b: rules})
		}
		var buf bytes.Buffer
		if err := encode(&buf, c, Metadata{Rules: rules}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	const limit = MaxArtifactBytes / (4 * rules) // 2^16 leaves
	if _, _, err := LoadBytes(artifact(limit + 1)); err == nil || !strings.Contains(err.Error(), "leaf rule references") {
		t.Fatalf("Load of an artifact whose canonical leaf slab exceeds the artifact limit: %v", err)
	}
	c, _, err := LoadBytes(artifact(16))
	if err != nil {
		t.Fatalf("16 leaves sharing one span refused: %v", err)
	}
	if len(c.leafRules16) != rules || c.Stats().LeafRuleRefs != 16*rules {
		t.Errorf("loaded slab holds %d refs for %d references, want %d", len(c.leafRules16), c.Stats().LeafRuleRefs, rules)
	}
}
