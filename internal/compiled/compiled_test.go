package compiled_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"strconv"
	"strings"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/cutsplit"
	"neurocuts/internal/efficuts"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/hypercuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// buildTrees constructs every tree-backend shape over one classifier:
// single equal-cut trees (HiCuts, HyperCuts), multi-tree with custom cuts
// (EffiCuts), and multi-tree FiCuts+HyperSplit (CutSplit).
func buildTrees(t *testing.T, set *rule.Set) map[string][]*tree.Tree {
	t.Helper()
	out := map[string][]*tree.Tree{}
	ht, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out["hicuts"] = []*tree.Tree{ht}
	hc, err := hypercuts.Build(set, hypercuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out["hypercuts"] = []*tree.Tree{hc}
	ec, err := efficuts.Build(set, efficuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out["efficuts"] = ec.Trees
	cs, err := cutsplit.Build(set, cutsplit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out["cutsplit"] = cs.Trees
	return out
}

func testPackets(set *rule.Set, n int) []rule.Packet {
	var ps []rule.Packet
	for _, e := range classbench.GenerateTrace(set, n*3/4, 11) {
		ps = append(ps, e.Key)
	}
	for _, e := range classbench.UniformTrace(set, n/4, 12) {
		ps = append(ps, e.Key)
	}
	return ps
}

// TestCompileLookupMatchesLinear is the package-level property test: for
// each tree shape, compiled lookup must agree with reference linear search.
func TestCompileLookupMatchesLinear(t *testing.T) {
	for _, family := range []string{"acl1", "fw1"} {
		fam, err := classbench.FamilyByName(family)
		if err != nil {
			t.Fatal(err)
		}
		set := classbench.Generate(fam, 300, 5)
		packets := testPackets(set, 2000)
		for name, trees := range buildTrees(t, set) {
			c, err := compiled.Compile(set, trees...)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", name, family, err)
			}
			for i, p := range packets {
				want := set.MatchIndex(p)
				got := -1
				if r, ok := c.Lookup(p); ok {
					got = r.Priority
				}
				if got != want {
					t.Fatalf("%s/%s packet %d %v: linear=%d compiled=%d",
						name, family, i, p, want, got)
				}
			}
			st := c.Stats()
			if st.Nodes == 0 || st.Leaves == 0 || st.Roots != len(trees) {
				t.Fatalf("%s/%s: implausible stats %+v", name, family, st)
			}
			if st.MaxStack < len(trees) {
				t.Fatalf("%s/%s: MaxStack %d below root count %d", name, family, st.MaxStack, len(trees))
			}
		}
	}
}

// TestCompilePartitionNodes covers KindPartition inside a single tree (the
// NeuroCuts partition action), which exercises the traversal stack.
func TestCompilePartitionNodes(t *testing.T) {
	fam, err := classbench.FamilyByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 200, 3)
	tr := tree.New(set, 16)
	if _, err := tr.PartitionByCoverage(tr.Root, rule.DimSrcIP, 0.5); err != nil {
		t.Skipf("degenerate partition on this classifier: %v", err)
	}
	for _, child := range tr.Root.Children {
		if tr.IsTerminal(child) {
			continue
		}
		if _, err := tr.Cut(child, rule.DimDstIP, 8); err != nil {
			t.Fatal(err)
		}
	}
	c, err := compiled.Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range testPackets(set, 1000) {
		want := set.MatchIndex(p)
		got := c.LookupIndex(p)
		if got != want {
			t.Fatalf("partition tree: packet %v: linear=%d compiled=%d", p, want, got)
		}
	}
}

// TestCompileRejectsForeignRules ensures Compile refuses trees whose leaves
// reference rules outside the classifier set. Leaves hold positions, so a
// tree over list A compiled against set B would silently serve B's rules at
// A's positions: it is refused wherever a referenced rule differs, whether
// B is as long as A, shorter, or differs in one rule; a tree over an equal
// copy of the set's list is the same tree and is accepted.
func TestCompileRejectsForeignRules(t *testing.T) {
	fam, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(fam, 50, 1)
	build := func(s *rule.Set) *tree.Tree {
		tr, err := hicuts.Build(s, hicuts.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	oneOff := set.Clone().Rules()
	oneOff[len(oneOff)-1].Ranges[rule.DimProto] = rule.Range{Lo: 17, Hi: 17}
	for name, other := range map[string]*rule.Set{
		"same length":  classbench.Generate(fam, 50, 99),
		"longer":       classbench.Generate(fam, 80, 1),
		"one rule off": rule.NewSetKeepPriorities(oneOff),
	} {
		if _, err := compiled.Compile(set, build(other)); err == nil {
			t.Errorf("%s: Compile accepted a tree over a different rule set", name)
		}
	}
	if _, err := compiled.Compile(set, build(set.Clone())); err != nil {
		t.Errorf("Compile refused a tree over an equal copy of the set's list: %v", err)
	}
}

// TestCompileRejectsBadLeafLists: leaf lists are copied out as they stand,
// so one that is out of list order or points outside the set must be caught
// by the structural check Compile ends with.
func TestCompileRejectsBadLeafLists(t *testing.T) {
	fam, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(fam, 50, 1)
	for name, list := range map[string][]int32{
		"descending": {3, 1}, "repeated": {2, 2}, "negative": {-1}, "past the end": {50},
	} {
		if _, err := compiled.Compile(set, tree.NewFromRules(set.Rules(), list, 16)); err == nil {
			t.Errorf("%s: Compile accepted leaf list %v", name, list)
		}
	}
}

// TestCompileSharesRuleList pins the ownership contract: a compiled
// classifier serves from the set's own rule slice, so an engine holds the
// list once per snapshot, not once for the set and once for the classifier.
func TestCompileSharesRuleList(t *testing.T) {
	fam, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(fam, 50, 1)
	c, err := compiled.Compile(set, tree.New(set, 16))
	if err != nil {
		t.Fatal(err)
	}
	if &c.Rules()[0] != &set.Rules()[0] {
		t.Error("Compile copied the rule list")
	}
}

// TestSaveLoadRoundTrip checks that an artifact survives a binary round
// trip bit-exactly: identical lookups, stats and metadata.
func TestSaveLoadRoundTrip(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 300, 7)
	trees := buildTrees(t, set)["cutsplit"] // multi-tree + custom cuts
	c, err := compiled.Compile(set, trees...)
	if err != nil {
		t.Fatal(err)
	}
	meta := compiled.Metadata{Backend: "cutsplit", Rules: set.Len(), Binth: 16, Source: "acl1_300", Note: "roundtrip"}

	var buf bytes.Buffer
	if err := compiled.Save(&buf, c, meta); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta, err := compiled.LoadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("metadata changed in round trip: %+v vs %+v", gotMeta, meta)
	}
	if loaded.Stats() != c.Stats() {
		t.Fatalf("stats changed in round trip: %+v vs %+v", loaded.Stats(), c.Stats())
	}
	for _, p := range testPackets(set, 2000) {
		if a, b := c.LookupIndex(p), loaded.LookupIndex(p); a != b {
			t.Fatalf("packet %v: original=%d reloaded=%d", p, a, b)
		}
	}
	rs := loaded.RuleSet()
	if rs.Len() != set.Len() {
		t.Fatalf("rule set size changed: %d vs %d", rs.Len(), set.Len())
	}
	for i, r := range rs.Rules() {
		if r.Ranges != set.Rule(i).Ranges || r.Priority != set.Rule(i).Priority || r.ID != set.Rule(i).ID {
			t.Fatalf("rule %d changed in round trip", i)
		}
	}

	// File round trip through the atomic SaveFile path.
	path := t.TempDir() + "/artifact.ncaf"
	if err := compiled.SaveFile(path, c, meta); err != nil {
		t.Fatal(err)
	}
	fromFile, _, err := compiled.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Stats() != c.Stats() {
		t.Fatalf("file round trip changed stats")
	}
}

// TestLoadRejectsMalformed feeds systematically broken artifacts to Load:
// every error path must return an error (no panics, no false accepts).
func TestLoadRejectsMalformed(t *testing.T) {
	fam, _ := classbench.FamilyByName("acl1")
	set := classbench.Generate(fam, 100, 2)
	tr, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiled.Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compiled.Save(&buf, c, compiled.Metadata{Backend: "hicuts", Rules: set.Len()}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, _, err := compiled.LoadBytes(valid); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}

	t.Run("empty", func(t *testing.T) {
		if _, _, err := compiled.LoadBytes(nil); err == nil {
			t.Fatal("accepted empty input")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] ^= 0xff
		if _, _, err := compiled.LoadBytes(bad); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{1, 3, 8, 15, 40, len(valid) / 2, len(valid) - 1} {
			if n >= len(valid) {
				continue
			}
			if _, _, err := compiled.LoadBytes(valid[:n]); err == nil {
				t.Fatalf("accepted truncation to %d bytes", n)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for off := 4; off < len(valid); off += 7 {
			bad := append([]byte(nil), valid...)
			bad[off] ^= 0x40
			if _, _, err := compiled.LoadBytes(bad); err == nil {
				t.Fatalf("accepted bit flip at offset %d", off)
			}
		}
	})
	t.Run("boundary-beyond-dimension", func(t *testing.T) {
		ec, err := efficuts.Build(set, efficuts.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Compile numbers nodes breadth-first across the trees, and the
		// artifact ends with the boundary points in node order: the last
		// point is the last boundary of the last custom cut so numbered.
		var queue []*tree.Node
		for _, tr := range ec.Trees {
			queue = append(queue, tr.Root)
		}
		var last *tree.Node
		for i := 0; i < len(queue); i++ {
			n := queue[i]
			queue = append(queue, n.Children...)
			if !n.IsLeaf() && n.CustomCut {
				last = n
			}
		}
		if last == nil {
			t.Fatal("EffiCuts built no custom cut")
		}
		ce, err := compiled.Compile(set, ec.Trees...)
		if err != nil {
			t.Fatal(err)
		}
		var art bytes.Buffer
		if err := compiled.Save(&art, ce, compiled.Metadata{Backend: "efficuts", Rules: set.Len()}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := compiled.LoadBytes(art.Bytes()); err != nil {
			t.Fatalf("valid artifact rejected: %v", err)
		}
		// Past its dimension's range, the point stays above the ones before
		// it: only the range check can refuse it.
		dim := last.CutDims[0]
		bad := art.Bytes()
		binary.LittleEndian.PutUint64(bad[len(bad)-12:], dim.MaxValue()+1)
		fixChecksum(bad)
		if _, _, err := compiled.LoadBytes(bad); err == nil || !strings.Contains(err.Error(), "beyond") {
			t.Fatalf("boundary %d in %s: Load = %v, want an out-of-range boundary error", dim.MaxValue()+1, dim, err)
		}
	})
	t.Run("cut-origin-beyond-dimension", func(t *testing.T) {
		// A HiCuts artifact has no boundary points, so it ends with its last
		// cut descriptor {u8 dim, u32 count, u64 lo, u64 step}, a zero point
		// count and the checksum.
		if n := binary.LittleEndian.Uint32(valid[len(valid)-8:]); n != 0 {
			t.Fatalf("HiCuts artifact holds %d boundary points", n)
		}
		desc := len(valid) - 8 - 21
		dim := rule.Dimension(valid[desc])
		// Past its dimension's range, the origin still dispatches every
		// packet to piece 0: only the range check can refuse it, and a
		// 32-bit inline origin would truncate it.
		bad := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(bad[desc+5:], dim.MaxValue()+1)
		fixChecksum(bad)
		if _, _, err := compiled.LoadBytes(bad); err == nil || !strings.Contains(err.Error(), "origin") {
			t.Fatalf("cut origin %d in %s: Load = %v, want an out-of-range origin error", dim.MaxValue()+1, dim, err)
		}
	})
	t.Run("leaf-record-with-cut-fields", func(t *testing.T) {
		// The node records follow magic, version, metadata, the 96-byte rule
		// records and the roots; each is {u8 kind, u8 ndims, u32 a, u32 b,
		// u32 cut, u32 cutN}. A serving leaf has no field for a cut
		// dimension, so a leaf record that sets one is refused rather than
		// saved back without it.
		off := 12 + int(binary.LittleEndian.Uint32(valid[8:]))
		off += 4 + int(binary.LittleEndian.Uint32(valid[off:]))*96
		off += 4 + int(binary.LittleEndian.Uint32(valid[off:]))*4
		n := int(binary.LittleEndian.Uint32(valid[off:]))
		off += 4
		for i := 0; i < n && valid[off] != 0; i++ {
			off += 18
		}
		if valid[off] != 0 {
			t.Fatal("HiCuts artifact has no leaf record")
		}
		bad := append([]byte(nil), valid...)
		bad[off+1] = 1
		fixChecksum(bad)
		if _, _, err := compiled.LoadBytes(bad); err == nil || !strings.Contains(err.Error(), "cut fields") {
			t.Fatalf("leaf record with a cut dimension: Load = %v, want a cut fields error", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		bad := versionSkewed(valid, compiled.SchemaVersion+1)
		_, _, err := compiled.LoadBytes(bad)
		if err == nil {
			t.Fatal("accepted version-skewed artifact")
		}
		if !strings.Contains(err.Error(), "schema version") {
			t.Fatalf("version skew not reported as such: %v", err)
		}
	})
}

// versionSkewed rewrites the artifact's schema version and repairs the
// checksum, isolating the version check from the corruption check.
func versionSkewed(valid []byte, version uint32) []byte {
	bad := append([]byte(nil), valid...)
	bad[4] = byte(version)
	bad[5] = byte(version >> 8)
	bad[6] = byte(version >> 16)
	bad[7] = byte(version >> 24)
	fixChecksum(bad)
	return bad
}

// TestSchemaVersionMatchesCommitted pins compiled.SchemaVersion to the
// committed ARTIFACT_SCHEMA_VERSION file, so a schema bump is always an
// explicit change that shows up in review (CI asserts the same).
func TestSchemaVersionMatchesCommitted(t *testing.T) {
	b, err := os.ReadFile("../../ARTIFACT_SCHEMA_VERSION")
	if err != nil {
		t.Fatalf("reading committed schema version: %v", err)
	}
	v, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		t.Fatalf("parsing ARTIFACT_SCHEMA_VERSION: %v", err)
	}
	if v != compiled.SchemaVersion {
		t.Fatalf("ARTIFACT_SCHEMA_VERSION=%d but compiled.SchemaVersion=%d: bump both together", v, compiled.SchemaVersion)
	}
}
