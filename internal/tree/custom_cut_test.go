package tree

import (
	"testing"

	"neurocuts/internal/rule"
)

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
