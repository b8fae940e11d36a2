package compiled_test

import (
	"strconv"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/core"
	"neurocuts/internal/cutsplit"
	"neurocuts/internal/env"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// trainTree trains a small NeuroCuts policy over set and returns its best
// tree. Training is the only expensive build, so callers skip it in -short.
func trainTree(t *testing.T, set *rule.Set, partition env.PartitionMode) *tree.Tree {
	t.Helper()
	cfg := core.Scaled(1000)
	cfg.MaxTimesteps = 600
	cfg.BatchTimesteps = 256
	cfg.Workers = 2
	cfg.Seed = 42
	cfg.Partition = partition
	trainer := core.NewTrainer(set, cfg)
	if _, err := trainer.Train(); err != nil {
		t.Fatal(err)
	}
	nt, _ := trainer.BestTree()
	if nt == nil {
		t.Fatal("neurocuts training produced no tree")
	}
	return nt
}

// partitionTree hand-builds a single tree whose root is a partition node
// with `groups` children, each holding an interleaved share of the rules and
// cut once where it is still too big. With enough groups a packet reaches
// more leaves than a full group's share of the walker arrays, so LookupBatch
// must notice mid-walk and fall back to the scalar lookup.
func partitionTree(t *testing.T, set *rule.Set, groups int) *tree.Tree {
	t.Helper()
	tr := tree.New(set, 8)
	parts := make([][]int32, groups)
	labels := make([]string, groups)
	for i := range set.Rules() {
		parts[i%groups] = append(parts[i%groups], int32(i))
	}
	for g := range labels {
		labels[g] = "part" + strconv.Itoa(g)
	}
	children, err := tr.Partition(tr.Root, parts, labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range children {
		if tr.IsTerminal(ch) {
			continue
		}
		if _, err := tr.Cut(ch, rule.DimSrcIP, 4); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// buildAllBackendTrees extends the shared buildTrees harness (single trees,
// and the multi-root forests of EffiCuts and CutSplit) with partition
// forests: hand-built partition roots narrow enough to walk and wide enough
// to overflow the walker arrays, and — outside -short — trained NeuroCuts
// trees with and without the partition action.
func buildAllBackendTrees(t *testing.T, set *rule.Set) map[string][]*tree.Tree {
	t.Helper()
	out := buildTrees(t, set)
	out["partition3"] = []*tree.Tree{partitionTree(t, set, 3)}
	out["partition20"] = []*tree.Tree{partitionTree(t, set, 20)}
	if !testing.Short() {
		out["neurocuts"] = []*tree.Tree{trainTree(t, set, env.PartitionNone)}
		out["neurocuts-partition"] = []*tree.Tree{trainTree(t, set, env.PartitionEffiCuts)}
	}
	return out
}

// TestDifferentialLookupBatch is the frontier-walk differential: LookupBatch
// must return byte-identical results to per-packet LookupIndex — and both
// must agree with reference linear search — over a 12k-packet sample, for
// every forest shape (single tree, multi-root, partition nodes, a partition
// too wide for the walker arrays), at batch lengths straddling the group
// width (1, G-1, G, G+1, 3G+2, 256) so single-packet groups, partial groups
// and many full groups are all crossed.
func TestDifferentialLookupBatch(t *testing.T) {
	const g = compiled.BatchGroup
	lengths := []int{1, g - 1, g, g + 1, 3*g + 2, 256}

	total := 0
	for _, family := range []string{"acl1", "fw1"} {
		fam, err := classbench.FamilyByName(family)
		if err != nil {
			t.Fatal(err)
		}
		set := classbench.Generate(fam, 250, 42)
		var packets []rule.Packet
		for _, e := range classbench.GenerateTrace(set, 5000, 43) {
			packets = append(packets, e.Key)
		}
		for _, e := range classbench.UniformTrace(set, 1000, 44) {
			packets = append(packets, e.Key)
		}
		total += len(packets)

		for backend, trees := range buildAllBackendTrees(t, set) {
			c, err := compiled.Compile(set, trees...)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", backend, family, err)
			}
			// Scalar reference over the whole sample, checked against linear
			// search once; the batch runs below then compare against it.
			scalar := make([]int32, len(packets))
			for i, p := range packets {
				scalar[i] = int32(c.LookupIndex(p))
				want := int32(set.MatchIndex(p))
				if scalar[i] != want {
					t.Fatalf("%s/%s: packet %d: linear=%d scalar=%d",
						backend, family, i, want, scalar[i])
				}
			}
			out := make([]int32, len(packets))
			for _, n := range lengths {
				for i := range out {
					out[i] = -2 // poison: every slot must be written
				}
				for off := 0; off < len(packets); off += n {
					hi := off + n
					if hi > len(packets) {
						hi = len(packets)
					}
					c.LookupBatch(packets[off:hi], out[off:hi])
				}
				for i := range out {
					if out[i] != scalar[i] {
						t.Fatalf("%s/%s: batchlen %d: packet %d: scalar=%d batch=%d",
							backend, family, n, i, scalar[i], out[i])
					}
				}
			}
		}
	}
	if total < 12000 {
		t.Fatalf("sample too small: %d packets", total)
	}
}

// TestLookupTiedPriorities is the regression test for tie order: two
// overlapping rules with the same Priority, held by different trees, must
// resolve to the first in the rule list (what rule.Set.MatchIndex returns)
// whichever tree the traversal reaches first. Leaf scans used to compare
// priorities and stop on a tie, so the answer depended on tree order.
func TestLookupTiedPriorities(t *testing.T) {
	a := rule.NewWildcardRule(5)
	a.ID = 1
	a.Ranges[rule.DimDstPort] = rule.Range{Lo: 0, Hi: 1023}
	b := rule.NewWildcardRule(5)
	b.ID = 2
	b.Ranges[rule.DimProto] = rule.Range{Lo: 6, Hi: 6}
	hit := rule.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80, Proto: 6} // matches both

	for _, order := range [][]rule.Rule{{a, b}, {b, a}} {
		set := rule.NewSetKeepPriorities(order)
		if got := set.MatchIndex(hit); got != 0 {
			t.Fatalf("linear search returned %d, want the first of the tied rules", got)
		}
		// One single-leaf tree per rule, compiled in both tree orders.
		first := tree.NewFromRules(set.Rules(), []int32{0}, 8)
		second := tree.NewFromRules(set.Rules(), []int32{1}, 8)
		for _, trees := range [][]*tree.Tree{{first, second}, {second, first}} {
			c, err := compiled.Compile(set, trees...)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.LookupIndex(hit); got != 0 {
				t.Errorf("rules %d,%d: LookupIndex = %d, want 0 (first in list)", order[0].ID, order[1].ID, got)
			}
			ps := []rule.Packet{hit, hit, hit}
			out := make([]int32, len(ps))
			c.LookupBatch(ps, out)
			for i, got := range out {
				if got != 0 {
					t.Errorf("rules %d,%d: LookupBatch[%d] = %d, want 0 (first in list)", order[0].ID, order[1].ID, i, got)
				}
			}
		}
	}
}

// TestLookupBatchDegenerate covers the paths a fuzzer of batch lengths
// would hit first: empty input, single packet (scalar fallback), and an
// out slice longer than ps (only the first len(ps) slots are written).
func TestLookupBatchDegenerate(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 100, 7)
	trees := buildTrees(t, set)["hicuts"]
	c, err := compiled.Compile(set, trees...)
	if err != nil {
		t.Fatal(err)
	}

	c.LookupBatch(nil, nil) // must not panic

	var ps []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 4, 8) {
		ps = append(ps, e.Key)
	}
	out := make([]int32, len(ps)+3)
	for i := range out {
		out[i] = -2
	}
	c.LookupBatch(ps[:1], out)
	if out[0] != int32(c.LookupIndex(ps[0])) {
		t.Fatalf("single-packet batch: got %d want %d", out[0], c.LookupIndex(ps[0]))
	}
	for i := 1; i < len(out); i++ {
		if out[i] != -2 {
			t.Fatalf("out[%d] written beyond len(ps)", i)
		}
	}
}

// BenchmarkLookupScalarVsBatch compares per-packet cost of the scalar lookup
// and the frontier walk on 10k-rule forests with a rule-directed trace: the
// single HiCuts tree and the multi-root CutSplit forests the serving
// benchmarks run on. It is the quick local proxy for the perf lab's
// compiledbatch cell; MB/s reads as million packets per second.
func BenchmarkLookupScalarVsBatch(b *testing.B) {
	for _, cell := range []struct{ family, backend string }{
		{"acl1", "hicuts"}, {"acl1", "cutsplit"}, {"fw1", "cutsplit"}, {"ipc1", "cutsplit"},
	} {
		fam, err := classbench.FamilyByName(cell.family)
		if err != nil {
			b.Fatal(err)
		}
		set := classbench.Generate(fam, 10000, 5)
		var trees []*tree.Tree
		if cell.backend == "hicuts" {
			ht, err := hicuts.Build(set, hicuts.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			trees = []*tree.Tree{ht}
		} else {
			cs, err := cutsplit.Build(set, cutsplit.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			trees = cs.Trees
		}
		c, err := compiled.Compile(set, trees...)
		if err != nil {
			b.Fatal(err)
		}
		var ps []rule.Packet
		for _, e := range classbench.GenerateTrace(set, 4096, 21) {
			ps = append(ps, e.Key)
		}
		out := make([]int32, len(ps))

		name := cell.family + "-" + cell.backend
		b.Run(name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range ps {
					out[j] = int32(c.LookupIndex(ps[j]))
				}
			}
			b.SetBytes(int64(len(ps)))
		})
		b.Run(name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.LookupBatch(ps, out)
			}
			b.SetBytes(int64(len(ps)))
		})
	}
}
