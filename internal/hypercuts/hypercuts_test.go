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
	if cfg.Binth != tree.DefaultBinth {
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
		if tr.ComputeMetrics().Nodes < 2 {
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
	// All rules live in a small corner of the space; region compaction
	// shrinks the root box before cutting.
	rules := make([]rule.Rule, 0, 40)
	for i := 0; i < 39; i++ {
		r := rule.NewWildcardRule(i)
		r.Ranges[rule.DimSrcIP] = rule.PrefixRange(uint64(0x0A000000+i*256), 24, 32)
		r.Ranges[rule.DimDstIP] = rule.PrefixRange(uint64(0x0B000000+i*512), 23, 32)
		rules = append(rules, r)
	}
	set := rule.NewSet(rules) // deliberately no default rule
	tr, err := Build(set, Config{Binth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Box[rule.DimSrcIP].IsFull(rule.DimSrcIP) {
		t.Error("region compaction should have shrunk the root box")
	}
	checkTreeEquivalence(t, tr, set, 1000, 9)
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
	tr, err := Build(set, Config{Binth: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkTreeEquivalence(t, tr, set, 200, 8)
}
