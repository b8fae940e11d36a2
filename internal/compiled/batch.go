package compiled

import "neurocuts/internal/rule"

// batchGroup is G: how many packets LookupBatch walks through a tree
// together.
const batchGroup = 32

// walkCap is the fixed capacity of a group's frontier: the walkers one group
// may put on one tree — one per packet, plus one per extra partition child
// met on the way down. A group that would need more falls back to the scalar
// lookup.
const walkCap = 8 * batchGroup

// walker is one (packet, subtree) pair of a group: pkt indexes the group's
// packets, node is where in the slab the pair currently stands.
type walker struct {
	node uint32
	pkt  uint32
}

// walkScratch is one LookupBatch call's working state. It lives on the
// caller's stack: no pool, no allocation, nothing shared between calls.
type walkScratch struct {
	// vals and keys hold each packet in its two operand forms: fields by
	// dimension for the cut dispatch, the kernel's key for the leaf scans.
	vals [batchGroup][rule.NumDims]uint64
	keys [batchGroup]rule.PackedKey
	// best is each packet's best match so far.
	best [batchGroup]uint32
	// front and next are the current and the following frontier.
	front, next [walkCap]walker
}

// LookupBatch classifies every packet of ps, writing each packet's best rule
// index (into Rules()) or -1 to the corresponding out element. Results are
// identical to per-packet LookupIndex calls; the call is allocation-free and
// safe for concurrent use.
//
// It is a frontier walk. A group of G packets puts one walker per packet on a
// tree's root; a pass advances every walker by one node in a single tight
// loop (partition nodes add a walker per extra child), and a walker that
// reaches a leaf scans it with the shared kernel and is done. Consecutive
// iterations of a pass belong to different packets, so the out-of-order core
// overlaps their loads, divides and leaf scans on its own — there is no
// software prefetch and no per-packet state machine.
func (c *Classifier) LookupBatch(ps []rule.Packet, out []int32) {
	out = out[:len(ps)]
	if len(ps) == 1 {
		// A lone packet has nothing to overlap with: spare it the scratch.
		out[0] = int32(c.LookupIndex(ps[0]))
		return
	}
	var s walkScratch
	for len(ps) > 0 {
		n := min(len(ps), batchGroup)
		if !c.walkGroup(&s, ps[:n], out) {
			for i, p := range ps[:n] {
				out[i] = int32(c.LookupIndex(p))
			}
		}
		ps, out = ps[n:], out[n:]
	}
}

// walkGroup classifies one group of at most G packets into out. It reports
// false, having written nothing, when a tree needs more than walkCap walkers.
func (c *Classifier) walkGroup(s *walkScratch, ps []rule.Packet, out []int32) bool {
	for i, p := range ps {
		setFields(&s.vals[i], p)
		s.keys[i] = p.Key()
		s.best[i] = noMatch
	}
	// The trees are walked one after the other, last root first: the order
	// the scalar lookup visits them in, which orderRoots ranked so the tree
	// that most often holds the winner comes first. Which leaf is scanned
	// first decides how many rules the running best cuts off in the others,
	// so keeping the scalar order keeps the walk from ever comparing more
	// rules than the lookup it replaces.
	front, next := &s.front, &s.next
	for r := len(c.roots) - 1; r >= 0; r-- {
		n := len(ps)
		for i := range ps {
			front[i] = walker{node: c.roots[r], pkt: uint32(i)}
		}
		created := n
		for n > 0 {
			m := 0
			for _, w := range front[:n] {
				nd := &c.nodes[w.node]
				switch nd.kind() {
				case kindLeaf:
					if c.leafRules16 != nil {
						s.best[w.pkt] = scanRefs(c, c.leafRules16[nd.a:nd.a+nd.count()], &s.keys[w.pkt], s.best[w.pkt])
					} else {
						s.best[w.pkt] = scanRefs(c, c.leafRules[nd.a:nd.a+nd.count()], &s.keys[w.pkt], s.best[w.pkt])
					}
					continue
				case kindCustomCut:
					w.node = nd.a + uint32(countLE(c.cutPoints[nd.lo:nd.lo+nd.count()-1], s.vals[w.pkt][nd.dim()]))
				case kindCut:
					w.node = nd.a + cutPiece(uint32(s.vals[w.pkt][nd.dim()]), nd.lo, nd.step, nd.count())
				case kindDescCut:
					w.node = c.descCutChild(nd, &s.vals[w.pkt])
				default: // kindPartition: every child holds part of the rules.
					kids := nd.count()
					created += int(kids) - 1
					if created > walkCap {
						return false
					}
					for j := uint32(1); j < kids; j++ {
						next[m] = walker{node: nd.a + j, pkt: w.pkt}
						m++
					}
					w.node = nd.a
				}
				next[m] = w
				m++
			}
			front, next = next, front
			n = m
		}
	}
	for i := range ps {
		out[i] = int32(s.best[i])
	}
	return true
}
