package efficuts

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
			t.Fatalf("packet %v: efficuts (%v,%v) vs linear (%v,%v)", p, got.Priority, okGot, want.Priority, okWant)
		}
	}
	for _, e := range classbench.GenerateTrace(set, n/2, seed+1) {
		got, ok := c.Classify(e.Key)
		if !ok || got.Priority != e.MatchRule {
			t.Fatalf("trace packet %v: got %v/%v want %d", e.Key, got.Priority, ok, e.MatchRule)
		}
	}
}

func TestPatternOf(t *testing.T) {
	r := rule.NewWildcardRule(0)
	p := PatternOf(r)
	if p.String() != "LLLLL" {
		t.Errorf("pattern string = %s", p.String())
	}
	r.Ranges[rule.DimSrcIP] = rule.PrefixRange(0x0A000000, 24, 32)
	r.Ranges[rule.DimDstPort] = rule.Range{Lo: 80, Hi: 80}
	p = PatternOf(r)
	if p[rule.DimSrcIP] || p[rule.DimDstPort] || !p[rule.DimDstIP] {
		t.Errorf("pattern = %s", p)
	}
}

func TestPartitionRules(t *testing.T) {
	f, _ := classbench.FamilyByName("fw1")
	set := classbench.Generate(f, 300, 1)
	groups, labels := PartitionRules(set.Rules(), tree.AllRules(set.Len()), true)
	if len(groups) != len(labels) {
		t.Fatal("groups/labels mismatch")
	}
	if len(groups) < 2 {
		t.Fatalf("firewall rules should span multiple categories, got %d", len(groups))
	}
	if len(groups) > MaxMergedTrees {
		t.Errorf("tree merging should bound the categories at %d, got %d", MaxMergedTrees, len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
		// Rules inside a group stay in priority order.
		for i := 1; i < len(g); i++ {
			if g[i] <= g[i-1] {
				t.Fatal("group not in priority order")
			}
		}
	}
	if total != set.Len() {
		t.Errorf("partition lost rules: %d vs %d", total, set.Len())
	}
	// Without merging there are at least as many categories.
	unmerged, _ := PartitionRules(set.Rules(), tree.AllRules(set.Len()), false)
	if len(unmerged) < len(groups) {
		t.Errorf("unmerged categories (%d) should be >= merged (%d)", len(unmerged), len(groups))
	}
}

func TestBuildSmallClassifiers(t *testing.T) {
	for _, fam := range []string{"acl1", "fw1", "ipc1"} {
		f, _ := classbench.FamilyByName(fam)
		set := classbench.Generate(f, 300, 1)
		c, err := Build(set, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if len(c.Trees) == 0 || len(c.Trees) != len(c.Labels) {
			t.Fatalf("%s: %d trees / %d labels", fam, len(c.Trees), len(c.Labels))
		}
		m := c.Metrics()
		if m.MemoryBytes <= 0 || m.ClassificationTime <= 0 {
			t.Errorf("%s: degenerate metrics %+v", fam, m)
		}
		checkClassifierEquivalence(t, c, set, 1500, 7)
	}
}

func TestEffiCutsReducesReplicationOnFirewalls(t *testing.T) {
	// The EffiCuts headline claim: separable trees slash the memory blow-up
	// that HiCuts suffers on wildcard-heavy firewall classifiers.
	f, _ := classbench.FamilyByName("fw3")
	set := classbench.Generate(f, 500, 3)
	effi, err := Build(set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hi, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	em, hm := effi.Metrics(), hi.ComputeMetrics()
	if em.MemoryBytes >= hm.MemoryBytes {
		t.Errorf("EffiCuts memory %d should beat HiCuts %d on fw3", em.MemoryBytes, hm.MemoryBytes)
	}
	// The price EffiCuts pays is classification time (multiple trees).
	if em.ClassificationTime <= 1 {
		t.Errorf("implausible EffiCuts time %d", em.ClassificationTime)
	}
	replication := float64(em.RuleRefs) / float64(set.Len())
	if replication > 3 {
		t.Errorf("EffiCuts replication factor %.1f is too high", replication)
	}
}

func TestEquiDenseVsEqualCuts(t *testing.T) {
	// Disabling the equi-dense cuts (the Section 6.3 ablation) must still
	// produce a correct classifier.
	f, _ := classbench.FamilyByName("acl4")
	set := classbench.Generate(f, 250, 5)
	cfg := DefaultConfig()
	cfg.EquiDense = false
	c, err := Build(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkClassifierEquivalence(t, c, set, 1000, 6)
}

func TestBuildZeroConfig(t *testing.T) {
	f, _ := classbench.FamilyByName("ipc2")
	set := classbench.Generate(f, 150, 4)
	c, err := Build(set, Config{EquiDense: true, EnableTreeMerging: true})
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

func TestEquiDensePointsRespectMaxCuts(t *testing.T) {
	f, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(f, 400, 2)
	tr := tree.New(set, 16)
	points := equiDensePoints(tr, tr.Root, rule.DimSrcIP, 8)
	if len(points) > 7 {
		t.Errorf("got %d points for maxCuts=8", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i] <= points[i-1] {
			t.Error("points not strictly increasing")
		}
	}
	// A node with no endpoints inside its box yields no points.
	empty := tree.New(rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)}), 16)
	if got := equiDensePoints(empty, empty.Root, rule.DimSrcIP, 8); len(got) != 0 {
		t.Errorf("wildcard-only node produced points %v", got)
	}
}

func TestPatternStringAndMetricsOnLabels(t *testing.T) {
	f, _ := classbench.FamilyByName("fw2")
	set := classbench.Generate(f, 200, 6)
	cfg := DefaultConfig()
	cfg.EnableTreeMerging = false
	c, err := Build(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range c.Labels {
		if len(l) != rule.NumDims {
			t.Errorf("unmerged label %q should be a pattern string", l)
		}
	}
	checkClassifierEquivalence(t, c, set, 600, 10)
}
