package tree_test

import (
	"math/rand"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// These tests check hand-built and randomly built trees in the form that
// serves them: compiled (internal/compiled imports this package, so they
// live in package tree_test) and held to linear search, rule.Set.MatchIndex.

// TestPaperFigure2 reproduces the node-cutting example of Figure 2: cutting
// the root into four pieces along x replicates the wide rules R1 and R4 into
// every child, and a further two-way cut along y yields the leaf rule sets
// shown in the figure.
func TestPaperFigure2(t *testing.T) {
	set := rule.NewSet(tree.Fig2Rules())
	tr := tree.New(set, 2)
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
	// Compiled lookups over the tree agree with linear search everywhere.
	checkEquivalence(t, set, 2000, 99, tr)
}

// TestPaperFigure3 reproduces the rule-partition example of Figure 3:
// separating the two x-wide rules (R1, R4) from the other four lets each
// partition be covered by a shallower tree with no replication.
func TestPaperFigure3(t *testing.T) {
	set := rule.NewSet(tree.Fig2Rules())
	tr := tree.New(set, 2)

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
	if len(children) != 2 || tr.Root.Kind != tree.KindPartition {
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
	checkEquivalence(t, set, 2000, 17, tr)
}

func TestRedundantRuleRemoval(t *testing.T) {
	// A high-priority rule that covers the whole child box makes every
	// lower-priority rule in that box redundant.
	broad := rule.NewWildcardRule(0)
	broad.Ranges[rule.DimSrcPort] = rule.Range{Lo: 0, Hi: 32767}
	narrow := rule.NewWildcardRule(1)
	narrow.Ranges[rule.DimSrcPort] = rule.Range{Lo: 100, Hi: 200}
	set := rule.NewSet([]rule.Rule{broad, narrow, rule.NewWildcardRule(2)})
	tr := tree.New(set, 1)
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
	checkEquivalence(t, set, 1000, 5, tr)
}

func TestMultiDimCutAndLookup(t *testing.T) {
	fam, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(fam, 200, 3)
	tr := tree.New(set, 8)
	if _, err := tr.CutMulti(tr.Root, []rule.Dimension{rule.DimSrcIP, rule.DimDstIP}, []int{4, 4}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Root.Children) != 16 {
		t.Fatalf("children = %d, want 16", len(tr.Root.Children))
	}
	checkEquivalence(t, set, 2000, 23, tr)
}

func TestCutAtPoints(t *testing.T) {
	set := rule.NewSet(tree.Fig2Rules())
	tr := tree.New(set, 2)
	// Unequal boundaries along x at 1/4 and 3/4 of the port space.
	children, err := tr.CutAtPoints(tr.Root, rule.DimSrcPort, []uint64{16384, 49152})
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 3 {
		t.Fatalf("children = %d, want 3", len(children))
	}
	if !tr.Root.CustomCut {
		t.Error("CustomCut flag not set")
	}
	// Pieces must tile the full port range.
	if children[0].Box[rule.DimSrcPort] != (rule.Range{Lo: 0, Hi: 16383}) ||
		children[1].Box[rule.DimSrcPort] != (rule.Range{Lo: 16384, Hi: 49151}) ||
		children[2].Box[rule.DimSrcPort] != (rule.Range{Lo: 49152, Hi: 65535}) {
		t.Errorf("child boxes = %v %v %v",
			children[0].Box[rule.DimSrcPort], children[1].Box[rule.DimSrcPort], children[2].Box[rule.DimSrcPort])
	}
	checkEquivalence(t, set, 1500, 31, tr)
}

func TestCustomCutMixedWithEqualCuts(t *testing.T) {
	fam, _ := classbench.FamilyByName("fw4")
	set := classbench.Generate(fam, 200, 6)
	tr := tree.New(set, 8)
	children, err := tr.CutAtPoints(tr.Root, rule.DimSrcIP, []uint64{1 << 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range children {
		if tr.IsTerminal(c) {
			continue
		}
		if _, err := tr.Cut(c, rule.DimDstIP, 16); err != nil {
			t.Fatal(err)
		}
	}
	checkEquivalence(t, set, 1500, 13, tr)
}

func TestMultiTreeMetricsAndClassify(t *testing.T) {
	set := rule.NewSet(tree.Fig2Rules())
	var wide, narrow []int32
	for i, r := range set.Rules() {
		if r.Coverage(rule.DimSrcPort) > 0.5 {
			wide = append(wide, int32(i))
		} else {
			narrow = append(narrow, int32(i))
		}
	}
	t1 := tree.NewFromRules(set.Rules(), narrow, 2)
	t2 := tree.NewFromRules(set.Rules(), wide, 2)
	if _, err := t1.Cut(t1.Root, rule.DimSrcPort, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Cut(t2.Root, rule.DimDstPort, 2); err != nil {
		t.Fatal(err)
	}
	trees := []*tree.Tree{t1, t2}
	m := tree.MultiMetrics(trees)
	if m.ClassificationTime != t1.ComputeMetrics().ClassificationTime+t2.ComputeMetrics().ClassificationTime {
		t.Error("multi-tree time should be the sum")
	}
	if m.BytesPerRule <= 0 {
		t.Error("bytes per rule should be positive")
	}
	checkEquivalence(t, set, 1000, 4, trees...)
	if got := tree.MultiMetrics(nil); got.MemoryBytes != 0 {
		t.Error("empty multi metrics should be zero")
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
			b := tree.NewBuilder(set, 8)
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
				k := tree.CutSizes[rng.Intn(len(tree.CutSizes))]
				if err := b.ApplyCut(dim, k); err != nil {
					t.Fatalf("%s seed %d: cut failed: %v", famName, seed, err)
				}
			}
			// Whatever state the tree is in (complete or truncated), its
			// compiled lookups must agree with linear search.
			checkEquivalence(t, set, 500, seed+1000, b.Tree())
		}
	}
}

// checkEquivalence compiles the trees into the form that serves them and
// checks its lookups against linear search on n random packets plus a packet
// inside each rule.
func checkEquivalence(t *testing.T, set *rule.Set, n int, seed int64, trees ...*tree.Tree) {
	t.Helper()
	c, err := compiled.Compile(set, trees...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	check := func(p rule.Packet) {
		if got, want := c.LookupIndex(p), set.MatchIndex(p); got != want {
			t.Fatalf("packet %v: compiled rule %d, linear rule %d", p, got, want)
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
