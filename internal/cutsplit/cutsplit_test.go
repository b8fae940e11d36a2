package cutsplit

import (
	"math/rand"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

func checkClassifierEquivalence(t *testing.T, c *Classifier, set *rule.Set, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := rule.Packet{
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(rng.Intn(65536)),
			DstPort: uint16(rng.Intn(65536)),
			Proto:   uint8(rng.Intn(256)),
		}
		want, okWant := set.Match(p)
		got, okGot := c.Classify(p)
		if okWant != okGot || (okWant && want.Priority != got.Priority) {
			t.Fatalf("packet %v: cutsplit (%v,%v) vs linear (%v,%v)", p, got.Priority, okGot, want.Priority, okWant)
		}
	}
	for _, e := range classbench.GenerateTrace(set, n/2, seed+1) {
		got, ok := c.Classify(e.Key)
		if !ok || got.Priority != e.MatchRule {
			t.Fatalf("trace packet %v: got %v/%v want %d", e.Key, got.Priority, ok, e.MatchRule)
		}
	}
}

func TestIsSmall(t *testing.T) {
	r := rule.NewWildcardRule(0)
	if isSmall(r, rule.DimSrcIP, 16) {
		t.Error("wildcard should not be small")
	}
	r.Ranges[rule.DimSrcIP] = rule.PrefixRange(0x0A000000, 24, 32)
	if !isSmall(r, rule.DimSrcIP, 16) {
		t.Error("/24 should be small at threshold 16")
	}
	r.Ranges[rule.DimSrcIP] = rule.PrefixRange(0x0A000000, 8, 32)
	if isSmall(r, rule.DimSrcIP, 16) {
		t.Error("/8 should not be small at threshold 16")
	}
	r.Ranges[rule.DimSrcIP] = rule.PrefixRange(0x0A000000, 16, 32)
	if !isSmall(r, rule.DimSrcIP, 16) {
		t.Error("/16 exactly should be small")
	}
}

func TestPartitionRules(t *testing.T) {
	f, _ := classbench.FamilyByName("fw1")
	set := classbench.Generate(f, 400, 1)
	groups, labels, dims := partitionRules(set.Rules(), 16)
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
		m := c.Metrics()
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
	cm, hm := cs.Metrics(), hi.ComputeMetrics()
	if cm.MemoryBytes >= hm.MemoryBytes {
		t.Errorf("CutSplit memory %d should beat HiCuts %d on fw4", cm.MemoryBytes, hm.MemoryBytes)
	}
	checkClassifierEquivalence(t, cs, set, 800, 4)
}

func TestHyperSplitNodesHaveTwoChildren(t *testing.T) {
	f, _ := classbench.FamilyByName("acl3")
	set := classbench.Generate(f, 200, 2)
	cfg := DefaultConfig()
	cfg.PreCutThreshold = 1 << 30 // force HyperSplit everywhere
	c, err := Build(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.Trees {
		tr.Walk(func(n *tree.Node) bool {
			if n.Kind == tree.KindCut && len(n.Children) != 2 {
				t.Errorf("HyperSplit node has %d children", len(n.Children))
				return false
			}
			return true
		})
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
