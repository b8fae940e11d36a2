package compiled

import (
	"slices"
	"unsafe"
)

// BatchGroup exports G for the differential tests probing batch lengths
// around it.
const BatchGroup = batchGroup

// LeafLists returns every leaf's rule list in node order, as the lookups
// read them from the serving slab.
func LeafLists(c *Classifier) [][]uint32 {
	var lists [][]uint32
	for i := range c.nodes {
		if nd := &c.nodes[i]; nd.kind() == kindLeaf {
			lists = append(lists, c.appendLeaf(nil, nd.a, nd.count()))
		}
	}
	return lists
}

// SameSlabs reports whether a and b serve from equal slabs: nodes, leaf
// rules, cut geometry, packed rules and the walk order of the roots.
func SameSlabs(a, b *Classifier) bool {
	return slices.Equal(a.nodes, b.nodes) && slices.Equal(a.leafRules, b.leafRules) &&
		slices.Equal(a.leafRules16, b.leafRules16) && slices.Equal(a.cutDescs, b.cutDescs) &&
		slices.Equal(a.cutPoints, b.cutPoints) && slices.Equal(a.packed, b.packed) &&
		slices.Equal(a.roots, b.roots)
}

// SlabBytes returns what the serving slabs hold, each slice's length times
// the size of its own element type, grouped as Stats groups them: nodes and
// roots, leaf spans, cut geometry, packed rules.
func SlabBytes(c *Classifier) (nodes, leafSpans, cuts, packed int) {
	return sliceBytes(c.nodes) + sliceBytes(c.roots),
		sliceBytes(c.leafRules) + sliceBytes(c.leafRules16),
		sliceBytes(c.cutDescs) + sliceBytes(c.cutPoints) + sliceBytes(c.cutPoints64),
		sliceBytes(c.packed)
}

func sliceBytes[T any](s []T) int {
	var e T
	return len(s) * int(unsafe.Sizeof(e))
}
