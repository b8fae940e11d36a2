package compiled

import (
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
)

// partitionChain hand-builds a chain of nested partition nodes, each holding
// a leaf and the next partition, so traversal depth, peak stack and the
// number of leaves a packet reaches all grow by one per level. Leaf i holds
// rule i: it matches destination port i alone, and the last rule is a
// catch-all. No real backend produces this shape — that is the point: it
// outgrows the fixed lookup stack and the walk's fixed frontier.
func partitionChain(t *testing.T, depth int) *Classifier {
	t.Helper()
	c := &Classifier{nodes: make([]node, 2*depth+1), roots: []uint32{0}}
	for i := 0; i <= depth; i++ {
		r := rule.NewWildcardRule(i)
		r.ID = i
		if i < depth {
			r.Ranges[rule.DimDstPort] = rule.Range{Lo: uint64(i), Hi: uint64(i)}
			c.nodes[2*i] = node{kind: kindPartition, a: uint32(2*i + 1), b: 2}
		}
		c.rules = append(c.rules, r)
		c.leafRules = append(c.leafRules, uint32(i))
		leaf := min(2*i+1, 2*depth)
		c.nodes[leaf] = node{kind: kindLeaf, a: uint32(i), b: 1}
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	c.packed = rule.PackRules(c.rules)
	c.computeStats()
	return c
}

// TestWalkGroupOverflowFallsBack drives the frontier walk past its fixed
// capacity: on a partition chain every packet reaches depth+1 leaves, so a
// full group outgrows walkCap mid-walk. walkGroup must then report false with
// out untouched — not truncate — and LookupBatch must serve the group through
// the scalar lookup; a group small enough to fit still walks.
func TestWalkGroupOverflowFallsBack(t *testing.T) {
	const depth = 40
	c := partitionChain(t, depth)
	ps := make([]rule.Packet, 3*batchGroup+2)
	want := make([]int32, len(ps))
	for i := range ps {
		ps[i] = rule.Packet{SrcIP: uint32(i), DstPort: uint16(i * 7 % (depth + 9))}
		want[i] = int32(min(int(ps[i].DstPort), depth))
		if got := c.LookupIndex(ps[i]); got != int(want[i]) {
			t.Fatalf("packet %d: scalar lookup %d, want %d", i, got, want[i])
		}
	}

	var s walkScratch
	out := make([]int32, len(ps))
	for i := range out {
		out[i] = -2
	}
	if c.walkGroup(&s, ps[:batchGroup], out) {
		t.Fatalf("a full group walked %d leaves per packet within walkCap %d", depth+1, walkCap)
	}
	for i, v := range out {
		if v != -2 {
			t.Fatalf("failed walk wrote out[%d] = %d", i, v)
		}
	}
	fits := walkCap / (depth + 1)
	if fits < 2 || !c.walkGroup(&s, ps[:fits], out) {
		t.Fatalf("a group of %d packets (%d walkers) did not walk", fits, fits*(depth+1))
	}
	c.LookupBatch(ps, out)
	for i := range ps {
		if out[i] != want[i] {
			t.Fatalf("packet %d: batch %d, want %d", i, out[i], want[i])
		}
	}
}

// TestLookupOverflowStackAllocFree is the regression test for the old
// per-call heap stack: classifiers whose MaxStack exceeds the fixed lookup
// stack must still look up with zero allocations once the overflow freelist
// is warm — scalar and batch (whose groups outgrow the walker arrays on this
// chain and fall back to scalar) alike.
func TestLookupOverflowStackAllocFree(t *testing.T) {
	c := partitionChain(t, 200)
	if c.stats.MaxStack <= lookupStackSize {
		t.Fatalf("chain gives MaxStack %d, need > %d to exercise the overflow path", c.stats.MaxStack, lookupStackSize)
	}
	p := rule.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	if got := c.LookupIndex(p); got != 4 {
		t.Fatalf("chain lookup = %d, want rule 4", got)
	}
	allocs := testing.AllocsPerRun(200, func() { c.LookupIndex(p) })
	if allocs != 0 {
		t.Errorf("overflow LookupIndex allocates %.1f allocs/op, want 0", allocs)
	}

	ps := make([]rule.Packet, 32)
	out := make([]int32, len(ps))
	c.LookupBatch(ps, out)
	allocs = testing.AllocsPerRun(100, func() { c.LookupBatch(ps, out) })
	if allocs != 0 {
		t.Errorf("overflow LookupBatch allocates %.1f allocs/batch, want 0", allocs)
	}
}

// TestLookupBatchAllocFree asserts the frontier walk is allocation-free on a
// real compiled tree from the first call: its scratch lives on the caller's
// stack, so there is no freelist to warm. This is the allocs gate the perf
// lab's batch cell depends on.
func TestLookupBatchAllocFree(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 2000, 9)
	tr, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	var ps []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 256, 17) {
		ps = append(ps, e.Key)
	}
	out := make([]int32, len(ps))
	allocs := testing.AllocsPerRun(100, func() { c.LookupBatch(ps, out) })
	if allocs != 0 {
		t.Errorf("LookupBatch allocates %.1f allocs/batch, want 0", allocs)
	}
}
