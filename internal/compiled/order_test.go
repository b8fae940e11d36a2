package compiled

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/cutsplit"
	"neurocuts/internal/efficuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// countCompares is a counting twin of lookupIndex: it walks p through the
// trees of roots the way the scalar lookup does (pushed in order, popped
// last first), scanning each leaf with the lookups' own scanRefs, and
// returns the best rule index with the number of rules the leaf scans
// compared the packet against.
func countCompares(c *Classifier, roots []uint32, p rule.Packet) (best uint32, compares int) {
	stack := slices.Clone(roots)
	var v [rule.NumDims]uint64
	setFields(&v, p)
	k := p.Key()
	best = noMatch
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	descend:
		for {
			nd := &c.nodes[cur]
			switch nd.kind() {
			case kindCut:
				cur = nd.a + cutPiece(uint32(v[nd.dim()]), nd.lo, nd.step, nd.count())
			case kindDescCut:
				cur = c.descCutChild(nd, &v)
			case kindCustomCut:
				cur = nd.a + uint32(countLE(c.cutPoints[nd.lo:nd.lo+nd.count()-1], v[nd.dim()]))
			case kindLeaf:
				// The scan compares k with every rule of the ascending span
				// ahead of the best it starts from, up to the one it matches.
				span := c.appendLeaf(nil, nd.a, nd.count())
				prev := best
				best = scanRefs(c, span, &k, best)
				ahead, _ := slices.BinarySearch(span, best)
				compares += ahead
				if best != prev {
					compares++
				}
				break descend
			default:
				for j := uint32(0); j < nd.count(); j++ {
					stack = append(stack, nd.a+j)
				}
				break descend
			}
		}
	}
	return best, compares
}

// compilePartitioned compiles the forest one multi-root backend builds over
// the first n rules of a ClassBench family (generator seed 1, as the golden
// trees are built).
func compilePartitioned(t *testing.T, family, backend string, n int) (*Classifier, *rule.Set) {
	t.Helper()
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, n, 1)
	var trees []*tree.Tree
	switch backend {
	case "efficuts":
		ec, err := efficuts.Build(set, efficuts.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		trees = ec.Trees
	case "cutsplit":
		cc, err := cutsplit.Build(set, cutsplit.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		trees = cc.Trees
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	c, err := Compile(set, trees...)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.roots) < 2 {
		t.Fatalf("%s/%s/%d: %d roots, want a forest", family, backend, n, len(c.roots))
	}
	return c, set
}

// comparesPerPacket counts the rule compares a GenerateTrace trace costs
// when the trees are walked in roots' order, holding every answer to
// LookupIndex.
func comparesPerPacket(t *testing.T, c *Classifier, set *rule.Set, roots []uint32, seed int64) float64 {
	t.Helper()
	const n = 20000
	total := 0
	for _, e := range classbench.GenerateTrace(set, n, seed) {
		best, k := countCompares(c, roots, e.Key)
		if got := c.LookupIndex(e.Key); int(int32(best)) != got {
			t.Fatalf("packet %v: counting walk %d, LookupIndex %d", e.Key, int32(best), got)
		}
		total += k
	}
	return float64(total) / n
}

// TestRootOrderComparesNoMore holds the derived root order to the one it
// replaced, the trees walked last root first in node order: on every
// multi-root golden cell and two traces, it never compares more rules per
// packet. Outside -short the tree_cold table is pinned to its measured
// figure (26.9 compares per packet last-first).
func TestRootOrderComparesNoMore(t *testing.T) {
	type cell struct {
		family, backend string
		size            int
		max             float64 // compares per packet at most; 0: no pin
	}
	cells := []cell{
		{"acl1", "efficuts", 1000, 0}, {"acl1", "cutsplit", 1000, 0},
		{"fw1", "efficuts", 1000, 0}, {"fw1", "cutsplit", 1000, 0},
		{"ipc1", "efficuts", 1000, 0}, {"ipc1", "cutsplit", 1000, 0},
	}
	if !testing.Short() {
		cells = append(cells, cell{"acl1", "cutsplit", 10000, 17})
	}
	for _, cl := range cells {
		c, set := compilePartitioned(t, cl.family, cl.backend, cl.size)
		lastFirst := slices.Sorted(slices.Values(c.roots))
		for _, seed := range []int64{1, 2} {
			derived := comparesPerPacket(t, c, set, c.roots, seed)
			before := comparesPerPacket(t, c, set, lastFirst, seed)
			t.Logf("%s/%s/%d seed %d: %.1f compares per packet derived, %.1f last-first (roots pushed %v)",
				cl.family, cl.backend, cl.size, seed, derived, before, c.roots)
			if derived > before {
				t.Errorf("%s/%s/%d seed %d: derived order compares %.2f rules per packet, last-first %.2f",
					cl.family, cl.backend, cl.size, seed, derived, before)
			}
			if cl.max > 0 && derived > cl.max {
				t.Errorf("%s/%s/%d seed %d: %.2f compares per packet, want at most %g",
					cl.family, cl.backend, cl.size, seed, derived, cl.max)
			}
		}
	}
}

// TestRootOrderDerivedNotStored checks that the walk order comes from the
// slabs, not from the artifact: Load(Save(c)) walks the trees in c's order,
// and so does an artifact whose root list was re-encoded in another order,
// with the same LookupIndex and LookupBatch answers. Save writes the roots
// in node order whatever order it was given.
func TestRootOrderDerivedNotStored(t *testing.T) {
	for _, backend := range []string{"efficuts", "cutsplit"} {
		c, set := compilePartitioned(t, "acl1", backend, 1000)
		var buf bytes.Buffer
		if err := Save(&buf, c, Metadata{Backend: backend, Rules: set.Len()}); err != nil {
			t.Fatal(err)
		}
		valid := buf.Bytes()

		// The root list follows magic, version, metadata and the rules.
		metaLen := int(binary.LittleEndian.Uint32(valid[8:]))
		off := 12 + metaLen
		off += 4 + int(binary.LittleEndian.Uint32(valid[off:]))*ruleRecordBytes
		n := int(binary.LittleEndian.Uint32(valid[off:]))
		off += 4
		stored := make([]uint32, n)
		for i := range stored {
			stored[i] = binary.LittleEndian.Uint32(valid[off+4*i:])
		}
		if want := slices.Sorted(slices.Values(c.roots)); !slices.Equal(stored, want) {
			t.Fatalf("%s: Save wrote roots %v, want node order %v", backend, stored, want)
		}

		artifacts := map[string][]byte{"saved": valid}
		for _, perm := range [][]uint32{slices.Clone(c.roots), reversed(stored), rotated(stored)} {
			mut := slices.Clone(valid)
			for i, r := range perm {
				binary.LittleEndian.PutUint32(mut[off+4*i:], r)
			}
			body := mut[:len(mut)-4]
			binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.ChecksumIEEE(body))
			artifacts[fmt.Sprint("roots stored as ", perm)] = mut
		}

		trace := classbench.GenerateTrace(set, 4096, 3)
		ps := make([]rule.Packet, len(trace))
		for i, e := range trace {
			ps[i] = e.Key
		}
		want := make([]int32, len(ps))
		c.LookupBatch(ps, want)
		got := make([]int32, len(ps))
		for name, art := range artifacts {
			l, _, err := LoadBytes(art)
			if err != nil {
				t.Fatalf("%s, %s: %v", backend, name, err)
			}
			if !slices.Equal(l.roots, c.roots) {
				t.Errorf("%s, %s: walk order %v, compiled %v", backend, name, l.roots, c.roots)
			}
			l.LookupBatch(ps, got)
			for i, p := range ps {
				if got[i] != want[i] || l.LookupIndex(p) != int(want[i]) {
					t.Fatalf("%s, %s: packet %v: batch %d, scalar %d, compiled %d",
						backend, name, p, got[i], l.LookupIndex(p), want[i])
				}
			}
			var again bytes.Buffer
			if err := Save(&again, l, Metadata{Backend: backend, Rules: set.Len()}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), valid) {
				t.Errorf("%s, %s: re-saved artifact differs from the compiled one's", backend, name)
			}
		}
	}
}

func reversed(s []uint32) []uint32 {
	r := slices.Clone(s)
	slices.Reverse(r)
	return r
}

func rotated(s []uint32) []uint32 {
	return append(slices.Clone(s[1:]), s[0])
}
