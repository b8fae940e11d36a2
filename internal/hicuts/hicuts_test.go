package hicuts

import (
	"math/rand"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
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
	if cfg.Binth != tree.DefaultBinth || cfg.SpFac != 2.0 || cfg.MaxCuts < 2 {
		t.Errorf("unexpected default config %+v", cfg)
	}
}

func TestBuildSmallClassifiers(t *testing.T) {
	for _, fam := range []string{"acl1", "fw1", "ipc1"} {
		f, _ := classbench.FamilyByName(fam)
		set := classbench.Generate(f, 300, 1)
		tr, err := Build(set, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		m := tr.ComputeMetrics()
		if m.Nodes < 2 {
			t.Errorf("%s: tree did not grow (%d nodes)", fam, m.Nodes)
		}
		if m.ClassificationTime < 2 {
			t.Errorf("%s: implausible classification time %d", fam, m.ClassificationTime)
		}
		if m.MaxDepth > DefaultConfig().MaxDepth {
			t.Errorf("%s: depth %d exceeds limit", fam, m.MaxDepth)
		}
		// Every HiCuts internal node cuts exactly one dimension.
		tr.Walk(func(n *tree.Node) bool {
			if n.Kind == tree.KindCut && len(n.CutDims) != 1 {
				t.Errorf("%s: HiCuts node cuts %d dimensions", fam, len(n.CutDims))
				return false
			}
			if n.Kind == tree.KindPartition {
				t.Errorf("%s: HiCuts must not partition", fam)
				return false
			}
			return true
		})
		checkTreeEquivalence(t, tr, set, 1500, 7)
	}
}

func TestBuildZeroConfigDefaults(t *testing.T) {
	f, _ := classbench.FamilyByName("acl2")
	set := classbench.Generate(f, 100, 2)
	tr, err := Build(set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Binth != tree.DefaultBinth {
		t.Errorf("binth = %d", tr.Binth)
	}
	checkTreeEquivalence(t, tr, set, 500, 3)
}

func TestBuildTinyClassifierIsLeafOnly(t *testing.T) {
	set := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)})
	tr, err := Build(set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NodeCount() != 1 {
		t.Errorf("tiny classifier should stay a single leaf, got %d nodes", tr.NodeCount())
	}
}

func TestBuildAllWildcardRulesTerminates(t *testing.T) {
	// Identical unseparable rules: HiCuts must not loop forever; it accepts
	// an oversized leaf.
	rules := make([]rule.Rule, 40)
	for i := range rules {
		rules[i] = rule.NewWildcardRule(i)
	}
	set := rule.NewSet(rules)
	tr, err := Build(set, Config{Binth: 8, SpFac: 2, MaxCuts: 16, MaxDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	checkTreeEquivalence(t, tr, set, 200, 5)
}

func TestSpFacControlsTreeSize(t *testing.T) {
	f, _ := classbench.FamilyByName("acl3")
	set := classbench.Generate(f, 400, 4)
	small, err := Build(set, Config{Binth: 16, SpFac: 1.2, MaxCuts: 64, MaxDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(set, Config{Binth: 16, SpFac: 8, MaxCuts: 64, MaxDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	ms, mb := small.ComputeMetrics(), big.ComputeMetrics()
	// A larger space budget buys fan-out, which should not make the tree
	// deeper; usually it is shallower (that is the whole point of spfac).
	if mb.ClassificationTime > ms.ClassificationTime {
		t.Errorf("spfac=8 time %d worse than spfac=1.2 time %d", mb.ClassificationTime, ms.ClassificationTime)
	}
	checkTreeEquivalence(t, small, set, 500, 11)
	checkTreeEquivalence(t, big, set, 500, 12)
}

func TestDepthLimitRespected(t *testing.T) {
	f, _ := classbench.FamilyByName("fw5")
	set := classbench.Generate(f, 500, 9)
	tr, err := Build(set, Config{Binth: 2, SpFac: 1.5, MaxCuts: 4, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.MaxDepth(); got > 6 {
		t.Errorf("depth %d exceeds MaxDepth 6", got)
	}
	checkTreeEquivalence(t, tr, set, 800, 21)
}

// spaceMeasureRef is spaceMeasure as it was before the one-pass count,
// kept verbatim: every piece rescans every rule.
func spaceMeasureRef(t *tree.Tree, n *tree.Node, dim rule.Dimension, k int) float64 {
	box := n.Box[dim]
	size := box.Size()
	if uint64(k) > size {
		k = int(size)
	}
	if k < 2 {
		return float64(n.NumRules() + 1)
	}
	step := size / uint64(k)
	total := k
	lo := box.Lo
	for i := 0; i < k; i++ {
		hi := lo + step - 1
		if i == k-1 {
			hi = box.Hi
		}
		piece := rule.Range{Lo: lo, Hi: hi}
		for _, ri := range n.Rules {
			if t.Rules[ri].Ranges[dim].Overlaps(piece) {
				total++
			}
		}
		lo = hi + 1
	}
	return float64(total)
}

// TestSpaceMeasureMatchesReference holds the one-pass space measure to the
// per-piece loop for every k from 2 to 64 over random boxes: wide and
// narrow ones, ones narrower than k, ones ending at the top of the 32-bit
// range, and rules that reach past the box on either side or miss it.
func TestSpaceMeasureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const top = 1<<32 - 1
	randRange := func(lo, hi uint64) rule.Range {
		a := lo + uint64(rng.Int63n(int64(hi-lo+1)))
		b := lo + uint64(rng.Int63n(int64(hi-lo+1)))
		return rule.Range{Lo: min(a, b), Hi: max(a, b)}
	}
	for trial := 0; trial < 300; trial++ {
		var box rule.Range
		switch trial % 5 {
		case 0:
			box = rule.FullRange(rule.DimSrcIP)
		case 1:
			box = rule.Range{Lo: top - uint64(rng.Intn(100)), Hi: top}
		case 2:
			w := uint64(1 + rng.Intn(70))
			lo := uint64(rng.Int63n(top - 70))
			box = rule.Range{Lo: lo, Hi: lo + w - 1}
		case 3:
			box = randRange(top-1<<20, top)
		default:
			box = randRange(0, top)
		}
		// Rules drawn around the box: some inside, some straddling an edge,
		// some outside it entirely, plus the wildcard.
		margin := box.Size()/2 + 1
		lo := box.Lo - min(box.Lo, margin)
		hi := box.Hi + min(top-box.Hi, margin)
		rules := []rule.Rule{rule.NewWildcardRule(0)}
		for i, n := 1, 1+rng.Intn(60); i < n; i++ {
			r := rule.NewWildcardRule(i)
			if rng.Intn(4) == 0 {
				r.Ranges[rule.DimSrcIP] = randRange(0, top)
			} else {
				r.Ranges[rule.DimSrcIP] = randRange(lo, hi)
			}
			rules = append(rules, r)
		}
		tr := tree.New(rule.NewSet(rules), tree.DefaultBinth)
		n := tr.Root
		n.Box[rule.DimSrcIP] = box
		for k := 2; k <= 64; k++ {
			got := spaceMeasure(tr, n, rule.DimSrcIP, k)
			want := spaceMeasureRef(tr, n, rule.DimSrcIP, k)
			if got != want {
				t.Fatalf("box %v, %d rules, k=%d: spaceMeasure %v, reference %v", box, len(rules), k, got, want)
			}
		}
	}
}
