package tree

import (
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
	if tr.NodeCount() != 13 || tr.LeafCount() != 8 {
		t.Errorf("nodes/leaves = %d/%d", tr.NodeCount(), tr.LeafCount())
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
	steps := 1
	for !b.Done() {
		if err := b.ApplyCut(rule.DimDstPort, 2); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if !b.Tree().IsComplete() {
		t.Error("builder finished with incomplete tree")
	}
	if b.Steps() != steps {
		t.Errorf("Steps = %d, want %d", b.Steps(), steps)
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
	if b.Pending() == 0 {
		t.Fatal("children should be pending")
	}
	// Skip everything: the tree stays incomplete but the builder terminates.
	for !b.Done() {
		b.Skip()
	}
	if b.Tree().IsComplete() {
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
	if got := len(tr.UnfinishedLeaves()); got != 1 {
		t.Fatalf("unfinished leaves = %d", got)
	}
	if _, err := tr.Cut(tr.Root, rule.DimDstIP, 8); err != nil {
		t.Fatal(err)
	}
	unfinished := tr.UnfinishedLeaves()
	for _, n := range unfinished {
		if tr.IsTerminal(n) || !n.IsLeaf() {
			t.Error("unfinished leaf misreported")
		}
	}
}
