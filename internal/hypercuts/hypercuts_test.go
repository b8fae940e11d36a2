package hypercuts

import (
	"math/rand"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// checkTreeEquivalence compiles the tree, the form that serves it, and
// checks its lookups against linear search on n random packets plus n/2
// trace packets.
func checkTreeEquivalence(t *testing.T, tr *tree.Tree, set *rule.Set, n int, seed int64) {
	t.Helper()
	c, err := compiled.Compile(set, tr)
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
			t.Fatalf("packet %v: compiled rule %d, linear rule %d", p, got, want)
		}
	}
	for _, e := range classbench.GenerateTrace(set, n/2, seed+1) {
		if got, want := c.LookupIndex(e.Key), set.MatchIndex(e.Key); got != want || got != e.MatchRule {
			t.Fatalf("trace packet %v: compiled rule %d, linear rule %d, trace says %d", e.Key, got, want, e.MatchRule)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Binth != tree.DefaultBinth || !cfg.RegionCompaction || cfg.SpFac <= 0 {
		t.Errorf("unexpected defaults %+v", cfg)
	}
}

func TestBuildSmallClassifiers(t *testing.T) {
	for _, fam := range []string{"acl1", "fw2", "ipc2"} {
		f, _ := classbench.FamilyByName(fam)
		set := classbench.Generate(f, 300, 1)
		tr, err := Build(set, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if tr.NodeCount() < 2 {
			t.Errorf("%s: tree did not grow", fam)
		}
		checkTreeEquivalence(t, tr, set, 1500, 7)
	}
}

func TestMultiDimensionalCutsHappen(t *testing.T) {
	f, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(f, 500, 2)
	tr, err := Build(set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	tr.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.KindCut && len(n.CutDims) > 1 {
			multi++
		}
		if n.Kind == tree.KindPartition {
			t.Error("HyperCuts must not partition")
			return false
		}
		return true
	})
	if multi == 0 {
		t.Error("expected at least one multi-dimensional cut (that is HyperCuts' defining feature)")
	}
}

func TestHyperCutsShallowerThanHiCutsOnACL(t *testing.T) {
	// The headline claim of the HyperCuts paper: multi-dimensional cutting
	// yields shallower trees than HiCuts on ACL-style classifiers.
	f, _ := classbench.FamilyByName("acl2")
	set := classbench.Generate(f, 600, 3)
	hyper, err := Build(set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hi, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hm, hc := hyper.ComputeMetrics(), hi.ComputeMetrics()
	if hm.ClassificationTime > hc.ClassificationTime+2 {
		t.Errorf("HyperCuts time %d should not be notably worse than HiCuts %d",
			hm.ClassificationTime, hc.ClassificationTime)
	}
}

func TestRegionCompaction(t *testing.T) {
	// All rules live in a small corner of the space; with compaction the
	// root box shrinks before cutting.
	rules := make([]rule.Rule, 0, 40)
	for i := 0; i < 39; i++ {
		r := rule.NewWildcardRule(i)
		r.Ranges[rule.DimSrcIP] = rule.PrefixRange(uint64(0x0A000000+i*256), 24, 32)
		r.Ranges[rule.DimDstIP] = rule.PrefixRange(uint64(0x0B000000+i*512), 23, 32)
		rules = append(rules, r)
	}
	set := rule.NewSet(rules) // deliberately no default rule
	cfg := DefaultConfig()
	cfg.Binth = 4
	tr, err := Build(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Box[rule.DimSrcIP].IsFull(rule.DimSrcIP) {
		t.Error("region compaction should have shrunk the root box")
	}
	checkTreeEquivalence(t, tr, set, 1000, 9)

	cfg.RegionCompaction = false
	tr2, err := Build(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.Root.Box[rule.DimSrcIP].IsFull(rule.DimSrcIP) {
		t.Error("without compaction the root box must stay full")
	}
	checkTreeEquivalence(t, tr2, set, 1000, 10)
}

func TestZeroConfigDefaults(t *testing.T) {
	f, _ := classbench.FamilyByName("fw3")
	set := classbench.Generate(f, 150, 5)
	tr, err := Build(set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkTreeEquivalence(t, tr, set, 600, 6)
}

func TestUnseparableRulesTerminate(t *testing.T) {
	rules := make([]rule.Rule, 30)
	for i := range rules {
		rules[i] = rule.NewWildcardRule(i)
	}
	set := rule.NewSet(rules)
	tr, err := Build(set, Config{Binth: 8, SpFac: 4, MaxCutsPerDim: 8, MaxDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	checkTreeEquivalence(t, tr, set, 200, 8)
}

func TestDepthLimit(t *testing.T) {
	f, _ := classbench.FamilyByName("fw1")
	set := classbench.Generate(f, 400, 7)
	cfg := DefaultConfig()
	cfg.MaxDepth = 5
	cfg.Binth = 2
	tr, err := Build(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxDepth() > 5 {
		t.Errorf("depth %d exceeds limit", tr.MaxDepth())
	}
	checkTreeEquivalence(t, tr, set, 800, 14)
}
