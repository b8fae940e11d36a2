package tree

import (
	"errors"
	"slices"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// fig2Rules builds the six-rule, two-dimensional classifier of Figure 2 in
// the paper, embedded into the SrcPort (x) / DstPort (y) dimensions with all
// other dimensions wildcarded. One x unit is 4096 port values so that equal
// cuts of the full port range land exactly on the rectangle boundaries.
func fig2Rules() []rule.Rule {
	mk := func(prio int, x0, x1, y0, y1 uint64) rule.Rule {
		r := rule.NewWildcardRule(prio)
		r.Ranges[rule.DimSrcPort] = rule.Range{Lo: x0 * 4096, Hi: x1*4096 - 1}
		r.Ranges[rule.DimDstPort] = rule.Range{Lo: y0 * 4096, Hi: y1*4096 - 1}
		return r
	}
	return []rule.Rule{
		mk(0, 4, 8, 10, 16),  // R0
		mk(1, 0, 16, 8, 12),  // R1: wide in x -> replicated by x cuts
		mk(2, 8, 12, 12, 16), // R2
		mk(3, 0, 4, 0, 4),    // R3
		mk(4, 0, 16, 4, 6),   // R4: wide in x
		mk(5, 12, 16, 0, 4),  // R5
	}
}

func TestCutErrors(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)
	if _, err := tr.Cut(tr.Root, rule.DimSrcPort, 1); err == nil {
		t.Error("fan-out 1 should fail")
	}
	if _, err := tr.Cut(tr.Root, rule.DimSrcPort, MaxCutsPerDim+1); err == nil {
		t.Error("fan-out above MaxCutsPerDim should fail")
	}
	if _, err := tr.CutMulti(tr.Root, []rule.Dimension{rule.DimSrcIP, rule.DimSrcIP}, []int{2, 2}); err == nil {
		t.Error("duplicate dimension should fail")
	}
	if _, err := tr.CutMulti(tr.Root, []rule.Dimension{rule.DimSrcIP}, []int{2, 2}); err == nil {
		t.Error("mismatched dims/counts should fail")
	}
	if _, err := tr.CutMulti(tr.Root, nil, nil); err == nil {
		t.Error("empty cut should fail")
	}
	if _, err := tr.Cut(tr.Root, rule.DimSrcPort, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Cut(tr.Root, rule.DimSrcPort, 2); err == nil {
		t.Error("cutting an expanded node should fail")
	}
}

func TestPartitionErrors(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)
	rules := tr.Root.Rules
	if _, err := tr.Partition(tr.Root, [][]int32{rules}, nil); err == nil {
		t.Error("single-group partition should fail")
	}
	if _, err := tr.Partition(tr.Root, [][]int32{rules[:2], rules[:2]}, nil); err == nil {
		t.Error("partition losing rules should fail")
	}
	if _, err := tr.Partition(tr.Root, [][]int32{rules, nil}, nil); err == nil {
		t.Error("partition with an empty side should fail")
	}
	// Degenerate coverage partition (everything on one side).
	if _, err := tr.PartitionByCoverage(tr.Root, rule.DimProto, 2.0); err == nil {
		t.Error("degenerate coverage partition should fail")
	}
	if _, err := tr.Partition(tr.Root, [][]int32{rules[:3], rules[3:]}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Partition(tr.Root, [][]int32{rules[:3], rules[3:]}, nil); err == nil {
		t.Error("partitioning an expanded node should fail")
	}
}

func TestPartitionByCoverage(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)
	children, err := tr.PartitionByCoverage(tr.Root, rule.DimSrcPort, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d", len(children))
	}
	if children[0].NumRules()+children[1].NumRules() != 6 {
		t.Error("partition dropped rules")
	}
	if children[0].PartitionLabel == "" || children[1].PartitionLabel == "" {
		t.Error("partition labels missing")
	}
}

func TestSplitRange(t *testing.T) {
	pieces := splitRange(rule.Range{Lo: 0, Hi: 99}, 4)
	if len(pieces) != 4 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	if pieces[0] != (rule.Range{Lo: 0, Hi: 24}) || pieces[3] != (rule.Range{Lo: 75, Hi: 99}) {
		t.Errorf("pieces = %v", pieces)
	}
	// Pieces must tile the range exactly.
	covered := uint64(0)
	for i, p := range pieces {
		covered += p.Size()
		if i > 0 && p.Lo != pieces[i-1].Hi+1 {
			t.Errorf("gap between piece %d and %d", i-1, i)
		}
	}
	if covered != 100 {
		t.Errorf("pieces cover %d values, want 100", covered)
	}
	// Remainder goes to the last piece.
	pieces = splitRange(rule.Range{Lo: 0, Hi: 9}, 3)
	if pieces[2].Size() != 4 {
		t.Errorf("last piece = %v", pieces[2])
	}
	// Narrow range: fan-out shrinks to the number of values.
	pieces = splitRange(rule.Range{Lo: 5, Hi: 6}, 8)
	if len(pieces) != 2 {
		t.Errorf("narrow split = %v", pieces)
	}
	// Single value cannot be split.
	pieces = splitRange(rule.Range{Lo: 5, Hi: 5}, 4)
	if len(pieces) != 1 {
		t.Errorf("single-value split = %v", pieces)
	}
}

func TestNarrowBoxCutShrinksFanout(t *testing.T) {
	set := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)})
	tr := New(set, 0)
	// Restrict the root box to a 2-value protocol range, then ask for 8 cuts.
	tr.Root.Box[rule.DimProto] = rule.Range{Lo: 6, Hi: 7}
	children, err := tr.Cut(tr.Root, rule.DimProto, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("children = %d, want fan-out clamped to 2", len(children))
	}
}

func TestLevelSizesAndHistogram(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)
	children, _ := tr.Cut(tr.Root, rule.DimSrcPort, 4)
	for _, c := range children {
		if _, err := tr.Cut(c, rule.DimDstPort, 2); err != nil {
			t.Fatal(err)
		}
	}
	sizes := tr.LevelSizes()
	if len(sizes) != 3 || sizes[0] != 1 || sizes[1] != 4 || sizes[2] != 8 {
		t.Errorf("level sizes = %v", sizes)
	}
	hist := tr.CutDimensionHistogram()
	if hist[0][rule.DimSrcPort] != 1 {
		t.Errorf("level 0 histogram = %v", hist[0])
	}
	if hist[1][rule.DimDstPort] != 4 {
		t.Errorf("level 1 histogram = %v", hist[1])
	}
	if m := tr.ComputeMetrics(); m.Nodes != 13 || m.Leaves != 8 {
		t.Errorf("nodes/leaves = %d/%d", m.Nodes, m.Leaves)
	}
}

func TestBuilderDFSOrder(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	b := NewBuilder(set, 2)
	if b.Done() || b.Current() != b.Tree().Root {
		t.Fatal("builder should start at the root")
	}
	if err := b.ApplyCut(rule.DimSrcPort, 4); err != nil {
		t.Fatal(err)
	}
	// DFS: the next node must be the first x child (it holds 3 > binth
	// rules).
	if b.Current() != b.Tree().Root.Children[0] {
		t.Fatal("builder did not descend depth-first")
	}
	for !b.Done() {
		if err := b.ApplyCut(rule.DimDstPort, 2); err != nil {
			t.Fatal(err)
		}
	}
	if b.Tree().ComputeMetrics().UnfinishedLeaves != 0 {
		t.Error("builder finished with incomplete tree")
	}
	if b.Current() != nil {
		t.Error("Current should be nil when done")
	}
	if err := b.ApplyCut(rule.DimSrcIP, 2); err == nil {
		t.Error("applying to a finished builder should fail")
	}
}

func TestBuilderSkipAndPartition(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	b := NewBuilder(set, 2)
	if err := b.ApplyPartitionByCoverage(rule.DimSrcPort, 0.5); err != nil {
		t.Fatal(err)
	}
	if b.Done() {
		t.Fatal("children should be pending")
	}
	// Skip everything: the tree stays incomplete but the builder terminates.
	for !b.Done() {
		b.Skip()
	}
	if b.Tree().ComputeMetrics().UnfinishedLeaves == 0 {
		t.Error("skipped tree should be incomplete")
	}
	b.Skip() // no-op on a finished builder
	// Explicit group partition through the builder.
	b2 := NewBuilder(set, 2)
	rules := b2.Tree().Root.Rules
	if err := b2.ApplyPartition([][]int32{rules[:3], rules[3:]}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderTerminalRoot(t *testing.T) {
	set := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)})
	b := NewBuilder(set, 16)
	if !b.Done() {
		t.Error("builder over a tiny classifier should start done")
	}
	if err := b.ApplyPartition(nil, nil); err == nil {
		t.Error("partition on done builder should fail")
	}
	if err := b.ApplyPartitionByCoverage(rule.DimSrcIP, 0.5); err == nil {
		t.Error("coverage partition on done builder should fail")
	}
}

// TestGrow pins the one loop every heuristic grows its tree with: the
// Builder's pre-order, and each termination rule Grow owns.
func TestGrow(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	// fig2Cut is TestBuilderDFSOrder's schedule: four SrcPort pieces at the
	// root, DstPort halves below.
	fig2Cut := func(tr *Tree, n *Node) ([]*Node, error) {
		if n.Depth == 0 {
			return tr.Cut(n, rule.DimSrcPort, 4)
		}
		return tr.Cut(n, rule.DimDstPort, 2)
	}

	t.Run("builder order", func(t *testing.T) {
		b := NewBuilder(set, 2)
		var want []*Node
		for n := b.Current(); n != nil; n = b.Current() {
			want = append(want, n)
			var err error
			if n.Depth == 0 {
				err = b.ApplyCut(rule.DimSrcPort, 4)
			} else {
				err = b.ApplyCut(rule.DimDstPort, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		tr := New(set, 2)
		var got []*Node
		err := Grow(tr, tr.Root, 0, func(n *Node) ([]*Node, error) {
			got = append(got, n)
			return fig2Cut(tr, n)
		})
		if err != nil {
			t.Fatal(err)
		}
		if m, want := tr.ComputeMetrics(), b.Tree().ComputeMetrics(); m.UnfinishedLeaves != 0 || m.Nodes != want.Nodes {
			t.Fatalf("Grow built %d nodes (%d unfinished leaves), the Builder %d", m.Nodes, m.UnfinishedLeaves, want.Nodes)
		}
		// The two trees are built alike, so the k-th expansion must be the
		// same node of each: compare their places in pre-order, which must
		// ascend.
		index := func(tr *Tree) map[*Node]int {
			m := map[*Node]int{}
			tr.Walk(func(n *Node) bool { m[n] = len(m); return true })
			return m
		}
		gi, wi := index(tr), index(b.Tree())
		if len(got) != len(want) || len(got) < 3 {
			t.Fatalf("Grow expanded %d nodes, the Builder %d", len(got), len(want))
		}
		for i := range got {
			if i > 0 && gi[got[i]] <= gi[got[i-1]] {
				t.Fatalf("expansion %d is pre-order node %d, after node %d", i, gi[got[i]], gi[got[i-1]])
			}
			if gi[got[i]] != wi[want[i]] {
				t.Fatalf("expansion %d: Grow took pre-order node %d, the Builder %d", i, gi[got[i]], wi[want[i]])
			}
		}
	})

	t.Run("no child smaller", func(t *testing.T) {
		// Three rules wide in SrcPort, disjoint in DstPort: a SrcPort cut
		// hands every child all three.
		var rules []rule.Rule
		for i := range 3 {
			r := rule.NewWildcardRule(i)
			r.Ranges[rule.DimDstPort] = rule.Range{Lo: uint64(i) * 100, Hi: uint64(i)*100 + 9}
			rules = append(rules, r)
		}
		tr := New(rule.NewSet(rules), 1)
		calls := 0
		err := Grow(tr, tr.Root, 0, func(n *Node) ([]*Node, error) {
			calls++
			return tr.Cut(n, rule.DimSrcPort, 2)
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 || len(tr.Root.Children) != 2 {
			t.Fatalf("cut called %d times, root has %d children; want 1 call and the root keeping both", calls, len(tr.Root.Children))
		}
		for _, c := range tr.Root.Children {
			if c.NumRules() != 3 || !c.IsLeaf() {
				t.Fatalf("child holds %d rules, leaf %v: want all 3, unexpanded", c.NumRules(), c.IsLeaf())
			}
		}
	})

	t.Run("max depth", func(t *testing.T) {
		for _, maxDepth := range []int{1, 2} {
			tr := New(set, 1)
			err := Grow(tr, tr.Root, maxDepth, func(n *Node) ([]*Node, error) {
				if n.Depth >= maxDepth {
					t.Fatalf("cut called at depth %d, max %d", n.Depth, maxDepth)
				}
				return fig2Cut(tr, n)
			})
			if err != nil {
				t.Fatal(err)
			}
			if m := tr.ComputeMetrics(); m.MaxDepth != maxDepth || m.UnfinishedLeaves == 0 {
				t.Fatalf("max depth %d: tree depth %d, %d unfinished leaves; want depth %d, unfinished leaves", maxDepth, m.MaxDepth, m.UnfinishedLeaves, maxDepth)
			}
		}
	})

	t.Run("nil children", func(t *testing.T) {
		tr := New(set, 2)
		calls := 0
		err := Grow(tr, tr.Root, 0, func(*Node) ([]*Node, error) { calls++; return nil, nil })
		if err != nil || calls != 1 || !tr.Root.IsLeaf() || tr.ComputeMetrics().UnfinishedLeaves != 1 {
			t.Fatalf("err %v, %d calls, root leaf %v: want the root accepted as an oversized leaf after one call", err, calls, tr.Root.IsLeaf())
		}
	})

	t.Run("cut error", func(t *testing.T) {
		tr := New(set, 2)
		boom := errors.New("boom")
		calls := 0
		err := Grow(tr, tr.Root, 0, func(n *Node) ([]*Node, error) {
			if calls++; calls == 3 {
				return nil, boom
			}
			return fig2Cut(tr, n)
		})
		if !errors.Is(err, boom) || calls != 3 {
			t.Fatalf("err %v after %d calls, want boom after 3", err, calls)
		}
	})

	t.Run("terminal start", func(t *testing.T) {
		tr := New(set, 6)
		err := Grow(tr, tr.Root, 0, func(*Node) ([]*Node, error) {
			t.Fatal("cut called on a node within the leaf threshold")
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBoundaries pins the split points a node's rules offer: clipped range
// ends strictly inside the box, distinct and ascending.
func TestBoundaries(t *testing.T) {
	tr := New(rule.NewSet(fig2Rules()), 2)
	const x = 4096 // one Figure 2 unit
	if got, want := tr.Boundaries(nil, tr.Root, rule.DimSrcPort), []uint64{4 * x, 8 * x, 12 * x}; !slices.Equal(got, want) {
		t.Fatalf("root SrcPort boundaries = %v, want %v", got, want)
	}
	children, err := tr.Cut(tr.Root, rule.DimSrcPort, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The left half [0, 8x) keeps R0, R1, R3 and R4: R0's low end and R3's
	// end are inside it; R0's end at 8x is the box's own end.
	if got, want := tr.Boundaries(nil, children[0], rule.DimSrcPort), []uint64{4 * x}; !slices.Equal(got, want) {
		t.Fatalf("left half SrcPort boundaries = %v, want %v", got, want)
	}
	if got := tr.Boundaries(nil, &Node{Box: tr.Root.Box}, rule.DimSrcPort); len(got) != 0 {
		t.Fatalf("a node without rules offers boundaries %v", got)
	}
}

func TestMetricsOnRootOnlyTree(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 16)
	m := tr.ComputeMetrics()
	if m.ClassificationTime != 1 || m.MaxDepth != 0 || m.Nodes != 1 || m.Leaves != 1 {
		t.Errorf("metrics = %+v", m)
	}
	wantBytes := NodeHeaderBytes + 6*RulePointerBytes
	if m.MemoryBytes != wantBytes {
		t.Errorf("memory = %d, want %d", m.MemoryBytes, wantBytes)
	}
	if m.BytesPerRule != float64(wantBytes)/6 {
		t.Errorf("bytes per rule = %v", m.BytesPerRule)
	}
	if tr.Time(nil) != 0 || tr.Space(nil) != 0 {
		t.Error("nil node metrics should be zero")
	}
}

func TestNodeKindString(t *testing.T) {
	if KindLeaf.String() != "leaf" || KindCut.String() != "cut" || KindPartition.String() != "partition" {
		t.Error("kind strings wrong")
	}
	if NodeKind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestNewFromRulesDefaults(t *testing.T) {
	tr := NewFromRules(fig2Rules(), AllRules(6), 0)
	if tr.Binth != DefaultBinth || tr.RuleCount != 6 {
		t.Errorf("defaults wrong: binth=%d count=%d", tr.Binth, tr.RuleCount)
	}
	tr2 := New(rule.NewSet(fig2Rules()), 0)
	if tr2.Binth != DefaultBinth {
		t.Errorf("New default binth = %d", tr2.Binth)
	}
}

func TestUnfinishedLeaves(t *testing.T) {
	fam, _ := classbench.FamilyByName("fw1")
	set := classbench.Generate(fam, 100, 1)
	tr := New(set, 8)
	if got := tr.ComputeMetrics().UnfinishedLeaves; got != 1 {
		t.Fatalf("unfinished leaves = %d", got)
	}
	children, err := tr.Cut(tr.Root, rule.DimDstIP, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, n := range children {
		if !tr.IsTerminal(n) {
			want++
		}
	}
	if got := tr.ComputeMetrics().UnfinishedLeaves; got != want || want == 0 {
		t.Errorf("unfinished leaves = %d, want the %d children over binth", got, want)
	}
}
