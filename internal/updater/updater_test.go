package updater

import (
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// testBase builds a Base whose lookup is the set's own linear search (the
// reference semantics).
func testBase(t *testing.T, set *rule.Set) *Base {
	t.Helper()
	b, err := NewBaseBatch(set, set.Match, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testBaseBatch is testBase with batched lookups in both shapes — a
// NewBaseBatch Rule batch and a position batch — each a loop over the same
// linear search, so ClassifyBatch and LookupBatch both take their batch
// paths.
func testBaseBatch(t *testing.T, set *rule.Set) *Base {
	t.Helper()
	b, err := NewBaseBatch(set, set.Match, func(ps []rule.Packet, rules []rule.Rule, oks []bool) {
		for i, p := range ps {
			rules[i], oks[i] = set.Match(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b.batch = func(ps []rule.Packet, pos []int32) {
		for i, p := range ps {
			pos[i] = int32(set.MatchIndex(p))
		}
	}
	return b
}

func genSet(t *testing.T, size int, seed int64) *rule.Set {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(fam, size, seed)
}

// mutateMerged applies a deterministic mix of inserts and deletes to a
// clone of the set, returning the merged list and the next fresh ID.
func mutateMerged(set *rule.Set, inserts, deletes int, nextID int) (*rule.Set, int) {
	merged := set.Clone()
	for i := 0; i < inserts; i++ {
		r := set.Rule((i * 13) % set.Len())
		r.ID = nextID
		nextID++
		merged.Insert((i*31)%(merged.Len()+1), r)
	}
	for i := 0; i < deletes && merged.Len() > 0; i++ {
		merged.Remove((i * 17) % merged.Len())
	}
	return merged, nextID
}

// TestViewMatchesLinearSearch is the core correctness property: a view's
// Classify must agree with linear search over the merged list across a mix
// of overlay inserts and base deletes (so both the fast path and the
// tombstoned-winner rescan are exercised).
func TestViewMatchesLinearSearch(t *testing.T) {
	set := genSet(t, 300, 1)
	merged, _ := mutateMerged(set, 40, 25, 100000)
	trace := classbench.GenerateTrace(merged, 4000, 9)

	b := testBase(t, set)
	v, err := NewView(b, merged)
	if err != nil {
		t.Fatal(err)
	}
	if v.OverlayLen() == 0 || v.Tombstones() == 0 {
		t.Fatalf("overlay=%d tombstones=%d, want both > 0", v.OverlayLen(), v.Tombstones())
	}
	for _, e := range trace {
		wantIdx := merged.MatchIndex(e.Key)
		got, ok := v.Classify(e.Key)
		if (wantIdx < 0) != !ok {
			t.Fatalf("packet %v: ok=%v want match=%v", e.Key, ok, wantIdx >= 0)
		}
		if !ok {
			continue
		}
		want := merged.Rule(wantIdx)
		if got.ID != want.ID || got.Priority != wantIdx {
			t.Fatalf("packet %v: got rule id=%d prio=%d, want id=%d prio=%d",
				e.Key, got.ID, got.Priority, want.ID, wantIdx)
		}
	}
}

// TestViewEmptyDelta: a view over an unchanged merged list has no overlay,
// no tombstones and identical results.
func TestViewEmptyDelta(t *testing.T) {
	set := genSet(t, 100, 2)
	b := testBase(t, set)
	v, err := NewView(b, set)
	if err != nil {
		t.Fatal(err)
	}
	if v.OverlayLen() != 0 || v.Tombstones() != 0 {
		t.Fatalf("overlay=%d tombstones=%d, want 0/0", v.OverlayLen(), v.Tombstones())
	}
	for _, e := range classbench.GenerateTrace(set, 500, 3) {
		got, ok := v.Classify(e.Key)
		want, wok := set.Match(e.Key)
		if ok != wok || (ok && got.ID != want.ID) {
			t.Fatalf("packet %v: view (%v,%v) vs linear (%v,%v)", e.Key, got.ID, ok, want.ID, wok)
		}
	}
}

// TestViewAllBaseDeleted: tombstoning every base rule must leave only
// overlay rules matching.
func TestViewAllBaseDeleted(t *testing.T) {
	set := genSet(t, 50, 4)
	merged := rule.NewSet(nil)
	w := rule.NewWildcardRule(0)
	w.ID = 999
	merged.Insert(0, w)
	b := testBase(t, set)
	v, err := NewView(b, merged)
	if err != nil {
		t.Fatal(err)
	}
	if v.Tombstones() != set.Len() {
		t.Fatalf("tombstones=%d want %d", v.Tombstones(), set.Len())
	}
	got, ok := v.Classify(rule.Packet{SrcIP: 1, Proto: 6})
	if !ok || got.ID != 999 {
		t.Fatalf("got (%v,%v), want wildcard id=999", got.ID, ok)
	}
}

// TestRankAssignment: any number of overlay rules fit in front of one base
// rule (there is no rank space to exhaust); they share its rank, stay in
// merged order, and map back to their own merged index.
func TestRankAssignment(t *testing.T) {
	set := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)})
	b := testBase(t, set)
	// Pile more overlay rules in front of the single base rule than the old
	// 1<<16 rank gap between two base anchors could number.
	const overlay = 70000
	rules := make([]rule.Rule, overlay+1)
	for i := range rules {
		rules[i] = rule.NewWildcardRule(i)
		rules[i].ID = 1000 + i
	}
	rules[overlay].ID = set.Rule(0).ID
	merged := rule.NewSetKeepPriorities(rules)
	v, err := NewView(b, merged)
	if err != nil {
		t.Fatalf("%d overlay rules in one gap must fit: %v", merged.Len()-1, err)
	}
	if v.OverlayLen() != merged.Len()-1 {
		t.Fatalf("overlay holds %d rules, want %d", v.OverlayLen(), merged.Len()-1)
	}
	for j, rank := range v.ranks {
		if rank != 0 {
			t.Fatalf("overlay rule %d has rank %d, want 0 (no live base rule ahead)", j, rank)
		}
	}
	// The top-of-list overlay rule (highest priority, most recent insert)
	// must win every lookup.
	got, ok := v.Classify(rule.Packet{Proto: 17})
	if !ok || got.ID != merged.Rule(0).ID || got.Priority != 0 {
		t.Fatalf("got (%d,%d,%v), want top overlay rule id=%d", got.ID, got.Priority, ok, merged.Rule(0).ID)
	}
}

// TestNewViewRejectsNonCanonical: merged lists whose priorities are not
// list indices, or that reorder base rules, are construction errors.
func TestNewViewRejectsNonCanonical(t *testing.T) {
	set := genSet(t, 20, 5)
	b := testBase(t, set)

	bad := rule.NewSetKeepPriorities([]rule.Rule{{Priority: 7, ID: 1}})
	if _, err := NewView(b, bad); err == nil {
		t.Fatal("non-canonical merged list accepted")
	}

	// Swap two base rules: relative base order must be preserved.
	rules := append([]rule.Rule(nil), set.Rules()...)
	rules[0], rules[1] = rules[1], rules[0]
	reordered := rule.NewSet(rules)
	// NewSet rewrites IDs to indices, which would defeat the check; restore
	// the swapped IDs.
	rs := reordered.Rules()
	rs[0].ID, rs[1].ID = set.Rule(1).ID, set.Rule(0).ID
	if _, err := NewView(b, reordered); err == nil {
		t.Fatal("base-rule reordering accepted")
	}
}

// TestNewBaseRejectsNonCanonical: base sets must have index priorities and
// unique IDs.
func TestNewBaseRejectsNonCanonical(t *testing.T) {
	bad := rule.NewSetKeepPriorities([]rule.Rule{{Priority: 3, ID: 0}})
	if _, err := NewBaseBatch(bad, bad.Match, nil); err == nil {
		t.Fatal("non-canonical base set accepted")
	}
	dup := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0), rule.NewWildcardRule(1)})
	dup.Rules()[1].ID = dup.Rules()[0].ID
	if _, err := NewBaseBatch(dup, dup.Match, nil); err == nil {
		t.Fatal("duplicate base IDs accepted")
	}
	if _, err := NewBaseBatch(rule.NewSet(nil), nil, nil); err == nil {
		t.Fatal("nil lookup accepted")
	}
}

// overlayLoad derives a view over b (built on set) carrying the given number
// of overlay rules and tombstones, both spread evenly over the table.
func overlayLoad(t testing.TB, set *rule.Set, b *Base, overlay, tombstones int) *View {
	t.Helper()
	n := set.Len()
	rules := make([]rule.Rule, 0, n+overlay)
	o, d := 0, 0
	for i, r := range set.Rules() {
		if o < overlay && i >= o*n/overlay {
			ins := set.Rule((i*13 + 7) % n)
			ins.ID = n + o
			rules = append(rules, ins)
			o++
		}
		if d < tombstones && i >= d*n/tombstones {
			d++
			continue
		}
		rules = append(rules, r)
	}
	for i := range rules {
		rules[i].Priority = i
	}
	v, err := NewView(b, rule.NewSetKeepPriorities(rules))
	if err != nil {
		t.Fatal(err)
	}
	if v.OverlayLen() != overlay || v.Tombstones() != tombstones {
		t.Fatalf("overlay=%d tombstones=%d, want %d/%d", v.OverlayLen(), v.Tombstones(), overlay, tombstones)
	}
	return v
}

// TestViewAllocationFree: the merged lookup performs zero heap allocations,
// scalar and batched, in positions and through the Rule-shaped wrappers, at
// the benchmark's mid-compaction fill (128 overlay rules + 128 tombstones).
// Nothing needs warming: the batch paths keep no scratch of their own.
func TestViewAllocationFree(t *testing.T) {
	set := genSet(t, 2000, 6)
	v := overlayLoad(t, set, testBaseBatch(t, set), 128, 128)
	trace := classbench.GenerateTrace(v.Merged(), 256, 11)
	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		v.Classify(keys[i%len(keys)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Classify allocates %.1f allocs/op, want 0", allocs)
	}
	rules, oks := make([]rule.Rule, len(keys)), make([]bool, len(keys))
	if allocs := testing.AllocsPerRun(50, func() { v.ClassifyBatch(keys, rules, oks) }); allocs != 0 {
		t.Errorf("ClassifyBatch allocates %.1f allocs/op, want 0", allocs)
	}
	pos := make([]int32, len(keys))
	if allocs := testing.AllocsPerRun(50, func() { v.LookupBatch(keys, pos) }); allocs != 0 {
		t.Errorf("LookupBatch allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestNewViewAllocsBounded: deriving a view allocates the view, its overlay
// records, ranks, rule copies and rule pointers, its candidate masks, its
// tombstone words and its source index (a directory and one chunk per
// srcChunk positions) — the same count whatever the overlay holds, so a rebase's
// garbage does not grow with the pending delta.
func TestNewViewAllocsBounded(t *testing.T) {
	set := genSet(t, 10000, 7)
	b := testBase(t, set)
	for _, overlay := range []int{1, 64, 256} {
		merged := overlayLoad(t, set, b, overlay, overlay).Merged()
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := NewView(b, merged); err != nil {
				t.Fatal(err)
			}
		})
		if want := 8 + (merged.Len()+srcMask)/srcChunk; allocs != float64(want) {
			t.Errorf("NewView with %d overlay rules: %.0f allocs, want %d", overlay, allocs, want)
		}
	}
}
