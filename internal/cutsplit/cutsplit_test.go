package cutsplit

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// checkClassifierEquivalence compiles the classifier's trees, the form that serves them, and
// checks its lookups against linear search on n random packets plus n/2
// trace packets.
func checkClassifierEquivalence(t *testing.T, cc *Classifier, set *rule.Set, n int, seed int64) {
	t.Helper()
	c, err := compiled.Compile(set, cc.Trees...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := rule.Packet{
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(rng.Intn(65536)),
			DstPort: uint16(rng.Intn(65536)),
			Proto:   uint8(rng.Intn(256)),
		}
		if got, want := c.LookupIndex(p), set.MatchIndex(p); got != want {
			t.Fatalf("packet %v: compiled cutsplit rule %d, linear rule %d", p, got, want)
		}
	}
	for _, e := range classbench.GenerateTrace(set, n/2, seed+1) {
		if got, want := c.LookupIndex(e.Key), set.MatchIndex(e.Key); got != want || got != e.MatchRule {
			t.Fatalf("trace packet %v: compiled cutsplit rule %d, linear rule %d, trace says %d", e.Key, got, want, e.MatchRule)
		}
	}
}

func TestIsSmall(t *testing.T) {
	r := rule.NewWildcardRule(0)
	if isSmall(r, rule.DimSrcIP) {
		t.Error("wildcard should not be small")
	}
	r.Ranges[rule.DimSrcIP] = rule.PrefixRange(0x0A000000, 24, 32)
	if !isSmall(r, rule.DimSrcIP) {
		t.Error("/24 should be small at threshold 16")
	}
	r.Ranges[rule.DimSrcIP] = rule.PrefixRange(0x0A000000, 8, 32)
	if isSmall(r, rule.DimSrcIP) {
		t.Error("/8 should not be small at threshold 16")
	}
	r.Ranges[rule.DimSrcIP] = rule.PrefixRange(0x0A000000, 16, 32)
	if !isSmall(r, rule.DimSrcIP) {
		t.Error("/16 exactly should be small")
	}
}

func TestPartitionRules(t *testing.T) {
	f, _ := classbench.FamilyByName("fw1")
	set := classbench.Generate(f, 400, 1)
	groups, labels, dims := partitionRules(set.Rules())
	if len(groups) != 4 || len(labels) != 4 || len(dims) != 4 {
		t.Fatalf("expected 4 subsets, got %d/%d/%d", len(groups), len(labels), len(dims))
	}
	total := 0
	for i, g := range groups {
		total += len(g)
		for j := 1; j < len(g); j++ {
			if g[j] <= g[j-1] {
				t.Fatalf("group %s not in priority order", labels[i])
			}
		}
	}
	if total != set.Len() {
		t.Errorf("partition lost rules: %d vs %d", total, set.Len())
	}
	if labels[0] != "sa-da" || labels[3] != "big" {
		t.Errorf("labels = %v", labels)
	}
	if len(dims[0]) != 2 || len(dims[3]) != 0 {
		t.Errorf("pre-cut dims = %v", dims)
	}
}

func TestBuildSmallClassifiers(t *testing.T) {
	for _, fam := range []string{"acl1", "fw2", "ipc1"} {
		f, _ := classbench.FamilyByName(fam)
		set := classbench.Generate(f, 300, 1)
		c, err := Build(set, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if len(c.Trees) == 0 {
			t.Fatalf("%s: no trees", fam)
		}
		m := tree.MultiMetrics(c.Trees)
		if m.MemoryBytes <= 0 || m.ClassificationTime <= 0 {
			t.Errorf("%s: degenerate metrics %+v", fam, m)
		}
		checkClassifierEquivalence(t, c, set, 1500, 7)
	}
}

func TestCutSplitMemoryCompetitiveWithHiCuts(t *testing.T) {
	// CutSplit's claim: pre-cutting plus splitting keeps memory low on
	// wildcard-heavy rule sets where HiCuts replicates heavily.
	f, _ := classbench.FamilyByName("fw4")
	set := classbench.Generate(f, 500, 3)
	cs, err := Build(set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hi, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cm, hm := tree.MultiMetrics(cs.Trees), hi.ComputeMetrics()
	if cm.MemoryBytes >= hm.MemoryBytes {
		t.Errorf("CutSplit memory %d should beat HiCuts %d on fw4", cm.MemoryBytes, hm.MemoryBytes)
	}
	checkClassifierEquivalence(t, cs, set, 800, 4)
}

// TestHyperSplitNodesHaveTwoChildren: in a default build every cut node
// HyperSplit made — each node of the "big" tree, and each node of another
// tree at or below the pre-cut threshold — is a binary split.
func TestHyperSplitNodesHaveTwoChildren(t *testing.T) {
	f, _ := classbench.FamilyByName("fw1")
	set := classbench.Generate(f, 500, 2)
	c, err := Build(set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	threshold, splits := preCutThreshold(tree.DefaultBinth), 0
	for i, tr := range c.Trees {
		tr.Walk(func(n *tree.Node) bool {
			if n.Kind != tree.KindCut || (c.Labels[i] != "big" && n.NumRules() > threshold) {
				return true
			}
			splits++
			if len(n.Children) != 2 {
				t.Errorf("%s: HyperSplit node has %d children", c.Labels[i], len(n.Children))
				return false
			}
			return true
		})
	}
	if splits == 0 {
		t.Fatal("the build made no HyperSplit node")
	}
	checkClassifierEquivalence(t, c, set, 800, 5)
}

func TestZeroConfigDefaults(t *testing.T) {
	f, _ := classbench.FamilyByName("ipc2")
	set := classbench.Generate(f, 150, 4)
	c, err := Build(set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkClassifierEquivalence(t, c, set, 600, 8)
}

func TestUnseparableRulesTerminate(t *testing.T) {
	rules := make([]rule.Rule, 40)
	for i := range rules {
		rules[i] = rule.NewWildcardRule(i)
	}
	set := rule.NewSet(rules)
	c, err := Build(set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkClassifierEquivalence(t, c, set, 200, 9)
}

func TestEmptySubsetsAreSkipped(t *testing.T) {
	// A classifier whose rules are all "big" produces a single tree.
	rules := []rule.Rule{}
	for i := 0; i < 30; i++ {
		r := rule.NewWildcardRule(i)
		r.Ranges[rule.DimSrcPort] = rule.Range{Lo: uint64(i * 100), Hi: uint64(i*100 + 50)}
		rules = append(rules, r)
	}
	rules = append(rules, rule.NewWildcardRule(30))
	set := rule.NewSet(rules)
	c, err := Build(set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Trees) != 1 || c.Labels[0] != "big" {
		t.Errorf("expected only the big tree, got %v", c.Labels)
	}
	checkClassifierEquivalence(t, c, set, 500, 10)
}

// cutsplitPin is one CutSplit build above the leaf thresholds the other
// tests use: the paper's tree metrics and the CRC-32 of the saved artifact.
type cutsplitPin struct {
	family              string
	binth               int
	nodes, leaves, refs int
	time, bytes         int
	crc                 uint32
}

// TestPreCutThresholdFollowsBinth holds CutSplit builds at leaf thresholds
// of 64 and 100, where the FiCuts/HyperSplit switch is 4*Binth rather than
// 64 rules, to their recorded trees. A flat threshold of 64 builds other
// trees for every row.
func TestPreCutThresholdFollowsBinth(t *testing.T) {
	pins := []cutsplitPin{
		{"fw1", 64, 1070, 1063, 1912, 9, 36680, 0xb2aeb099},
		{"fw1", 100, 1062, 1059, 1996, 7, 37192, 0xb3db6d23},
		{"ipc1", 64, 1066, 1061, 2000, 8, 37304, 0xba395693},
		{"ipc1", 100, 1062, 1059, 2000, 7, 37224, 0xa9f142e0},
	}
	for _, want := range pins {
		f, _ := classbench.FamilyByName(want.family)
		set := classbench.Generate(f, 2000, 1)
		c, err := Build(set, Config{Binth: want.binth})
		if err != nil {
			t.Fatal(err)
		}
		m := tree.MultiMetrics(c.Trees)
		cc, err := compiled.Compile(set, c.Trees...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := compiled.Save(&buf, cc, compiled.Metadata{Backend: "cutsplit", Rules: set.Len()}); err != nil {
			t.Fatal(err)
		}
		got := cutsplitPin{want.family, want.binth, m.Nodes, m.Leaves, m.RuleRefs, m.ClassificationTime, m.MemoryBytes,
			crc32.ChecksumIEEE(buf.Bytes()[:buf.Len()-4])} // the last four bytes are the artifact's own checksum
		if got != want {
			t.Errorf("tree changed:\n got  %+v\n want %+v", got, want)
		}
	}
}
