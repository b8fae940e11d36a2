package compiled

import "slices"

// BatchGroup exports G for the differential tests probing batch lengths
// around it.
const BatchGroup = batchGroup

// LeafLists returns every leaf's rule list in node order, as the lookups
// read them from the serving slab.
func LeafLists(c *Classifier) [][]uint32 {
	var lists [][]uint32
	for i := range c.nodes {
		if nd := &c.nodes[i]; nd.kind == kindLeaf {
			lists = append(lists, c.leafRules[nd.a:nd.a+nd.b])
		}
	}
	return lists
}

// SameSlabs reports whether a and b serve from equal slabs: nodes, leaf
// rules, cut geometry, packed rules and the walk order of the roots.
func SameSlabs(a, b *Classifier) bool {
	return slices.Equal(a.nodes, b.nodes) && slices.Equal(a.leafRules, b.leafRules) &&
		slices.Equal(a.cutDescs, b.cutDescs) && slices.Equal(a.cutPoints, b.cutPoints) &&
		slices.Equal(a.packed, b.packed) && slices.Equal(a.roots, b.roots)
}
