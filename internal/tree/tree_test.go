package tree

import (
	"math/rand"
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

// ruleIDs widens a node's rule list; over a rule.NewSet classifier a rule's
// position is its priority.
func ruleIDs(rules []int32) []int {
	ids := make([]int, len(rules))
	for i, ri := range rules {
		ids[i] = int(ri)
	}
	return ids
}

func equalIDs(a []int, b ...int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPaperFigure2 reproduces the node-cutting example of Figure 2: cutting
// the root into four pieces along x replicates the wide rules R1 and R4 into
// every child, and a further two-way cut along y yields the leaf rule sets
// shown in the figure.
func TestPaperFigure2(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)
	if tr.Root.NumRules() != 6 {
		t.Fatalf("root has %d rules", tr.Root.NumRules())
	}

	xChildren, err := tr.Cut(tr.Root, rule.DimSrcPort, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(xChildren) != 4 {
		t.Fatalf("x cut produced %d children", len(xChildren))
	}
	wantX := [][]int{{1, 3, 4}, {0, 1, 4}, {1, 2, 4}, {1, 4, 5}}
	for i, c := range xChildren {
		got := ruleIDs(c.Rules)
		if !equalIDs(got, wantX[i]...) {
			t.Errorf("x child %d rules = %v, want %v", i, got, wantX[i])
		}
		if c.Depth != 1 {
			t.Errorf("x child %d depth = %d", i, c.Depth)
		}
	}

	// R1 and R4 are replicated into all four children, as the paper notes.
	for i, c := range xChildren {
		found1, found4 := false, false
		for _, ri := range c.Rules {
			if ri == 1 {
				found1 = true
			}
			if ri == 4 {
				found4 = true
			}
		}
		if !found1 || !found4 {
			t.Errorf("wide rules not replicated into child %d", i)
		}
	}

	wantY := [][][]int{
		{{3, 4}, {1}},
		{{4}, {0, 1}},
		{{4}, {1, 2}},
		{{4, 5}, {1}},
	}
	for i, c := range xChildren {
		yChildren, err := tr.Cut(c, rule.DimDstPort, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(yChildren) != 2 {
			t.Fatalf("y cut produced %d children", len(yChildren))
		}
		for j, leaf := range yChildren {
			got := ruleIDs(leaf.Rules)
			if !equalIDs(got, wantY[i][j]...) {
				t.Errorf("leaf (%d,%d) rules = %v, want %v", i, j, got, wantY[i][j])
			}
		}
	}

	if !tr.IsComplete() {
		t.Error("tree should be complete with binth=2")
	}
	m := tr.ComputeMetrics()
	if m.MaxDepth != 2 {
		t.Errorf("max depth = %d, want 2", m.MaxDepth)
	}
	if m.ClassificationTime != 3 {
		t.Errorf("classification time = %d, want 3 (root + 2 levels)", m.ClassificationTime)
	}
	// Classification through the tree agrees with linear search everywhere.
	checkEquivalence(t, tr, set, 2000, 99)
}

// TestPaperFigure3 reproduces the rule-partition example of Figure 3:
// separating the two x-wide rules (R1, R4) from the other four lets each
// partition be covered by a shallower tree with no replication.
func TestPaperFigure3(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)

	var wide, narrow []int32
	for i, r := range set.Rules() {
		if r.Coverage(rule.DimSrcPort) > 0.5 {
			wide = append(wide, int32(i))
		} else {
			narrow = append(narrow, int32(i))
		}
	}
	if len(wide) != 2 || len(narrow) != 4 {
		t.Fatalf("partition sizes %d/%d, want 2/4", len(wide), len(narrow))
	}

	children, err := tr.Partition(tr.Root, [][]int32{narrow, wide}, []string{"narrow", "wide"})
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 || tr.Root.Kind != KindPartition {
		t.Fatalf("partition produced %d children, kind %s", len(children), tr.Root.Kind)
	}

	// Partition 1 (narrow rules): one 4-way cut along x separates R0,R2,R3,R5
	// into singleton leaves, exactly as in Figure 3(a).
	cut1, err := tr.Cut(children[0], rule.DimSrcPort, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cut1 {
		if len(c.Rules) > 1 {
			t.Errorf("narrow partition leaf holds %d rules, want <= 1", len(c.Rules))
		}
	}
	// Partition 2 (wide rules): a 2-way cut along y separates R1 from R4.
	cut2, err := tr.Cut(children[1], rule.DimDstPort, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cut2 {
		if len(c.Rules) > 2 {
			t.Errorf("wide partition leaf holds %d rules", len(c.Rules))
		}
	}

	if !tr.IsComplete() {
		t.Error("partitioned tree should be complete")
	}
	m := tr.ComputeMetrics()
	// No rule replication at all in the partitioned tree.
	if m.RuleRefs != 6 {
		t.Errorf("partitioned tree stores %d rule refs, want 6 (no replication)", m.RuleRefs)
	}
	// Classification time under a partition is the sum over both subtrees.
	wantTime := 1 + (1 + 1) + (1 + 1)
	if m.ClassificationTime != wantTime {
		t.Errorf("classification time = %d, want %d", m.ClassificationTime, wantTime)
	}
	checkEquivalence(t, tr, set, 2000, 17)
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

func TestRedundantRuleRemoval(t *testing.T) {
	// A high-priority rule that covers the whole child box makes every
	// lower-priority rule in that box redundant.
	broad := rule.NewWildcardRule(0)
	broad.Ranges[rule.DimSrcPort] = rule.Range{Lo: 0, Hi: 32767}
	narrow := rule.NewWildcardRule(1)
	narrow.Ranges[rule.DimSrcPort] = rule.Range{Lo: 100, Hi: 200}
	set := rule.NewSet([]rule.Rule{broad, narrow, rule.NewWildcardRule(2)})
	tr := New(set, 1)
	children, err := tr.Cut(tr.Root, rule.DimSrcPort, 2)
	if err != nil {
		t.Fatal(err)
	}
	// In the low half the broad rule shadows both the narrow rule and the
	// default rule.
	if got := ruleIDs(children[0].Rules); !equalIDs(got, 0) {
		t.Errorf("low child rules = %v, want [0]", got)
	}
	// Equivalence is preserved despite the removal.
	checkEquivalence(t, tr, set, 1000, 5)
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

func TestMultiDimCutAndLookup(t *testing.T) {
	fam, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(fam, 200, 3)
	tr := New(set, 8)
	if _, err := tr.CutMulti(tr.Root, []rule.Dimension{rule.DimSrcIP, rule.DimDstIP}, []int{4, 4}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Root.Children) != 16 {
		t.Fatalf("children = %d, want 16", len(tr.Root.Children))
	}
	checkEquivalence(t, tr, set, 2000, 23)
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

func TestMultiTreeMetricsAndClassify(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	var wide, narrow []int32
	for i, r := range set.Rules() {
		if r.Coverage(rule.DimSrcPort) > 0.5 {
			wide = append(wide, int32(i))
		} else {
			narrow = append(narrow, int32(i))
		}
	}
	t1 := NewFromRules(set.Rules(), narrow, 2)
	t2 := NewFromRules(set.Rules(), wide, 2)
	if _, err := t1.Cut(t1.Root, rule.DimSrcPort, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Cut(t2.Root, rule.DimDstPort, 2); err != nil {
		t.Fatal(err)
	}
	trees := []*Tree{t1, t2}
	m := MultiMetrics(trees)
	if m.ClassificationTime != t1.ComputeMetrics().ClassificationTime+t2.ComputeMetrics().ClassificationTime {
		t.Error("multi-tree time should be the sum")
	}
	if m.BytesPerRule <= 0 {
		t.Error("bytes per rule should be positive")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		p := randomPacket(rng)
		want, okWant := set.Match(p)
		got, okGot := ClassifyMulti(trees, p)
		if okWant != okGot {
			t.Fatalf("packet %v: found %v vs %v", p, okGot, okWant)
		}
		if okWant && got.Priority != want.Priority {
			t.Fatalf("packet %v: rule %d vs %d", p, got.Priority, want.Priority)
		}
	}
	if got := MultiMetrics(nil); got.MemoryBytes != 0 {
		t.Error("empty multi metrics should be zero")
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

// checkEquivalence verifies that tree classification matches linear search
// on n random packets plus packets drawn from inside each rule.
func checkEquivalence(t *testing.T, tr *Tree, set *rule.Set, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	check := func(p rule.Packet) {
		want, okWant := set.Match(p)
		got, okGot := tr.Classify(p)
		if okWant != okGot {
			t.Fatalf("packet %v: tree found=%v linear found=%v", p, okGot, okWant)
		}
		if okWant && got.Priority != want.Priority {
			t.Fatalf("packet %v: tree rule %d, linear rule %d", p, got.Priority, want.Priority)
		}
	}
	for i := 0; i < n; i++ {
		check(randomPacket(rng))
	}
	// Also probe inside every rule's box to hit low-probability regions.
	for _, r := range set.Rules() {
		p := rule.Packet{
			SrcIP:   uint32(r.Ranges[rule.DimSrcIP].Lo),
			DstIP:   uint32(r.Ranges[rule.DimDstIP].Hi),
			SrcPort: uint16(r.Ranges[rule.DimSrcPort].Lo),
			DstPort: uint16(r.Ranges[rule.DimDstPort].Hi),
			Proto:   uint8(r.Ranges[rule.DimProto].Lo),
		}
		check(p)
	}
}

func randomPacket(rng *rand.Rand) rule.Packet {
	return rule.Packet{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		Proto:   uint8(rng.Intn(256)),
	}
}

// TestPropertyRandomTreesEquivalent builds trees with random action
// sequences over generated classifiers and checks that classification always
// agrees with linear search — the core correctness invariant the paper
// relies on ("decision trees provide perfect accuracy by construction").
func TestPropertyRandomTreesEquivalent(t *testing.T) {
	families := []string{"acl1", "fw3", "ipc2"}
	for _, famName := range families {
		fam, _ := classbench.FamilyByName(famName)
		for seed := int64(0); seed < 3; seed++ {
			set := classbench.Generate(fam, 150, seed)
			rng := rand.New(rand.NewSource(seed * 31))
			b := NewBuilder(set, 8)
			steps := 0
			thresholds := []float64{0.02, 0.08, 0.32, 0.64}
			for !b.Done() && steps < 500 {
				steps++
				// Random action: mostly cuts, occasionally a partition.
				if rng.Float64() < 0.15 {
					dim := rule.Dimensions()[rng.Intn(rule.NumDims)]
					thr := thresholds[rng.Intn(len(thresholds))]
					if err := b.ApplyPartitionByCoverage(dim, thr); err == nil {
						continue
					}
				}
				dim := rule.Dimensions()[rng.Intn(rule.NumDims)]
				k := CutSizes[rng.Intn(len(CutSizes))]
				if err := b.ApplyCut(dim, k); err != nil {
					t.Fatalf("%s seed %d: cut failed: %v", famName, seed, err)
				}
			}
			// Whatever state the tree is in (complete or truncated), lookups
			// must agree with linear search.
			checkEquivalence(t, b.Tree(), set, 500, seed+1000)
		}
	}
}
