package efficuts

import (
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
func checkClassifierEquivalence(t *testing.T, ec *Classifier, set *rule.Set, n int, seed int64) {
	t.Helper()
	c, err := compiled.Compile(set, ec.Trees...)
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
			t.Fatalf("packet %v: compiled efficuts rule %d, linear rule %d", p, got, want)
		}
	}
	for _, e := range classbench.GenerateTrace(set, n/2, seed+1) {
		if got, want := c.LookupIndex(e.Key), set.MatchIndex(e.Key); got != want || got != e.MatchRule {
			t.Fatalf("trace packet %v: compiled efficuts rule %d, linear rule %d, trace says %d", e.Key, got, want, e.MatchRule)
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
	groups, labels := PartitionRules(set.Rules(), tree.AllRules(set.Len()))
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
		m := tree.MultiMetrics(c.Trees)
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
	em, hm := tree.MultiMetrics(effi.Trees), hi.ComputeMetrics()
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

func TestBuildZeroConfig(t *testing.T) {
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

func TestEquiDensePointsRespectMaxCuts(t *testing.T) {
	f, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(f, 400, 2)
	tr := tree.New(set, 16)
	points := equiDensePoints(tr, tr.Root, rule.DimSrcIP)
	if len(points) == 0 || len(points) > maxCuts-1 {
		t.Errorf("got %d points for maxCuts=%d", len(points), maxCuts)
	}
	for i := 1; i < len(points); i++ {
		if points[i] <= points[i-1] {
			t.Error("points not strictly increasing")
		}
	}
	// A node with no endpoints inside its box yields no points.
	empty := tree.New(rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)}), 16)
	if got := equiDensePoints(empty, empty.Root, rule.DimSrcIP); len(got) != 0 {
		t.Errorf("wildcard-only node produced points %v", got)
	}
}

func TestPatternStringAndMetricsOnLabels(t *testing.T) {
	f, _ := classbench.FamilyByName("fw2")
	set := classbench.Generate(f, 200, 6)
	c, err := Build(set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range c.Labels {
		if len(l) != rule.NumDims {
			t.Errorf("merged label %q should be a pattern string", l)
		}
	}
	checkClassifierEquivalence(t, c, set, 600, 10)
}
