package tree

import (
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

func TestCutAtPoints(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)
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
	checkEquivalence(t, tr, set, 1500, 31)
}

func TestCutAtPointsErrors(t *testing.T) {
	set := rule.NewSet(fig2Rules())
	tr := New(set, 2)
	if _, err := tr.CutAtPoints(tr.Root, rule.DimSrcPort, nil); err == nil {
		t.Error("no boundaries should fail")
	}
	if _, err := tr.CutAtPoints(tr.Root, rule.DimSrcPort, []uint64{0}); err == nil {
		t.Error("boundary at range start should fail")
	}
	if _, err := tr.CutAtPoints(tr.Root, rule.DimSrcPort, []uint64{70000}); err == nil {
		t.Error("boundary beyond range should fail")
	}
	if _, err := tr.CutAtPoints(tr.Root, rule.DimSrcPort, []uint64{100, 100}); err == nil {
		t.Error("non-increasing boundaries should fail")
	}
	if _, err := tr.CutAtPoints(tr.Root, rule.DimSrcPort, []uint64{100, 50}); err == nil {
		t.Error("decreasing boundaries should fail")
	}
	if _, err := tr.Cut(tr.Root, rule.DimSrcPort, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CutAtPoints(tr.Root, rule.DimSrcPort, []uint64{100}); err == nil {
		t.Error("cutting an expanded node should fail")
	}
}

func TestCustomCutMixedWithEqualCuts(t *testing.T) {
	fam, _ := classbench.FamilyByName("fw4")
	set := classbench.Generate(fam, 200, 6)
	tr := New(set, 8)
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
	checkEquivalence(t, tr, set, 1500, 13)
}
