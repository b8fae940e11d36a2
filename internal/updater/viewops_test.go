package updater

import (
	"math/rand"
	"testing"

	"neurocuts/internal/rule"
)

// indexOf returns the merged-list index of the live rule with the given ID,
// or -1. Base rules resolve through the base's ID index and a count over the
// overlay's ranks; only overlay rules are scanned for.
func indexOf(v *View, id int) int {
	if bi, inBase := v.base.indexByID[id]; inBase {
		if v.tombstoned(bi) {
			return -1
		}
		rank := v.baseRank(bi)
		return rank + v.aheadOf(rank)
	}
	if j := v.overlayIndex(id); j >= 0 {
		return int(v.ranks[j]) + j
	}
	return -1
}

// opStream decodes a fuzz input (or a random byte string) into the choices
// of one view-ops run. Exhausted input reads as zeros, so every prefix of an
// input is itself a valid run and the fuzzer can shrink freely.
type opStream struct {
	data []byte
}

func (s *opStream) byte() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// value draws a field value for dimension d from a palette that makes
// boundaries and collisions likely: the ends of the space, a few small
// values, and one arbitrary point.
func (s *opStream) value(d rule.Dimension) uint64 {
	max := d.MaxValue()
	switch b := s.byte(); b % 8 {
	case 0:
		return 0
	case 1:
		return max
	case 2:
		return max / 2
	case 3:
		return max/2 + 1
	case 4:
		return max - 1
	default:
		return uint64(b) * (max / 255)
	}
}

// rule draws one rule: per dimension a wildcard, an exact value, a range
// (prefix-aligned or not), or — rarely — a range rule.Validate would reject
// (empty, or reaching beyond the field's width), which journals can carry.
func (s *opStream) rule() rule.Rule {
	var r rule.Rule
	for _, d := range rule.Dimensions() {
		switch k := s.byte(); {
		case k%4 == 0:
			r.Ranges[d] = rule.FullRange(d)
		case k%4 == 1:
			v := s.value(d)
			r.Ranges[d] = rule.Range{Lo: v, Hi: v}
		case k == 254:
			r.Ranges[d] = rule.Range{Lo: s.value(d) + 1, Hi: s.value(d) / 2} // often empty
		case k == 255:
			r.Ranges[d] = rule.Range{Lo: s.value(d), Hi: d.MaxValue() + 1 + s.value(d)}
		default:
			a, b := s.value(d), s.value(d)
			if a > b {
				a, b = b, a
			}
			r.Ranges[d] = rule.Range{Lo: a, Hi: b}
		}
	}
	return r
}

// steer returns a packet inside r's box where the box has one: each field
// sits on the range's low end, its high end, or between.
func (s *opStream) steer(r rule.Rule) rule.Packet {
	var f [rule.NumDims]uint64
	for _, d := range rule.Dimensions() {
		lo, hi := r.Ranges[d].Lo, min(r.Ranges[d].Hi, d.MaxValue())
		switch s.byte() % 3 {
		case 0:
			f[d] = lo
		case 1:
			f[d] = hi
		default:
			f[d] = lo + (hi-lo)/2
		}
	}
	return rule.Packet{SrcIP: uint32(f[0]), DstIP: uint32(f[1]), SrcPort: uint16(f[2]), DstPort: uint16(f[3]), Proto: uint8(f[4])}
}

// viewOpsBase is the base every run starts from: overlapping rules drawn
// from the same palette as the inserts, over a catch-all (which the ops may
// delete, so "no rule matches" is reachable).
func viewOpsBase() *rule.Set {
	rng := rand.New(rand.NewSource(42))
	seed := make([]byte, 4096)
	rng.Read(seed)
	s := &opStream{data: seed}
	rules := make([]rule.Rule, 0, 80)
	for i := 0; i < 79; i++ {
		rules = append(rules, s.rule())
	}
	return rule.NewSet(append(rules, rule.NewWildcardRule(0)))
}

// viewOpsRun is one view-ops run: a reference model (a rule.Set edited in
// place), the view carried through the same ops, and the op stream that
// supplies the run's choices and traffic.
type viewOpsRun struct {
	t       *testing.T
	s       *opStream
	step    int
	baseSet *rule.Set
	base    *Base
	merged  *rule.Set
	carried *View
	nextID  int
	lastID  int         // the ID inserted last
	dead    []rule.Rule // deleted rules: their boxes keep getting traffic
	// maxOverlay is the largest overlay a view held.
	maxOverlay int
}

func newViewOpsRun(t *testing.T, data []byte) *viewOpsRun {
	baseSet := viewOpsBase()
	base := testBaseBatch(t, baseSet)
	return &viewOpsRun{t: t, s: &opStream{data: data}, baseSet: baseSet, base: base,
		merged: baseSet.Clone(), carried: base.View(), nextID: baseSet.Len(), lastID: -1}
}

// insert places r, under a fresh ID, at pos in the model and the view.
func (r *viewOpsRun) insert(pos int, x rule.Rule) {
	x.ID = r.nextID
	r.nextID++
	r.merged.Insert(pos, x)
	v, err := r.carried.Insert(pos, x)
	if err != nil {
		r.t.Fatalf("step %d: Insert(%d, id %d): %v", r.step, pos, x.ID, err)
	}
	r.carried, r.lastID = v, x.ID
}

// remove deletes the model's rule i from the model and, by ID, the view.
func (r *viewOpsRun) remove(i int) {
	x := r.merged.Rule(i)
	r.dead = append(r.dead, x)
	r.merged.Remove(i)
	v, ok := r.carried.Delete(x.ID)
	if !ok {
		r.t.Fatalf("step %d: Delete(%d) of a live rule found nothing", r.step, x.ID)
	}
	r.carried = v
}

// removeID deletes the live rule with the given ID, if there is one.
func (r *viewOpsRun) removeID(id int) {
	for i, x := range r.merged.Rules() {
		if x.ID == id {
			r.remove(i)
			return
		}
	}
}

// compact makes the model the base, as a compaction does, and restarts the
// carried view from it.
func (r *viewOpsRun) compact() {
	r.baseSet = r.merged.Clone()
	r.base = testBaseBatch(r.t, r.baseSet)
	r.carried = r.base.View()
}

// pick returns the merged index of the n-th rule that is (or is not) a base
// rule, or -1 when there is none.
func (r *viewOpsRun) pick(n int, wantBase bool) int {
	var idx []int
	for i, x := range r.merged.Rules() {
		if _, inBase := r.base.indexByID[x.ID]; inBase == wantBase {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[n%len(idx)]
}

// check ends a step: it derives the state a second way, from scratch over
// the model (NewView), and holds both views to the model and to linear
// search over it.
func (r *viewOpsRun) check() {
	t, s, merged := r.t, r.s, r.merged
	// A fresh clone per view: the model keeps changing.
	scratch, err := NewView(r.base, merged.Clone())
	if err != nil {
		t.Fatalf("step %d: NewView: %v", r.step, err)
	}
	r.maxOverlay = max(r.maxOverlay, r.carried.OverlayLen())

	// Traffic: every overlay rule's box, every deleted rule's box (base
	// winners that are tombstoned take the rescan, then the overlay cutoff
	// moves), and a few arbitrary packets.
	var pkts []rule.Packet
	for _, x := range merged.Rules() {
		if scratch.FromOverlay(x.ID) {
			pkts = append(pkts, s.steer(x))
		}
	}
	for _, x := range r.dead {
		pkts = append(pkts, s.steer(x))
	}
	for i := 0; i < 4; i++ {
		pkts = append(pkts, s.steer(s.rule()))
	}
	// The view's overlay probe and tombstone rescan run the packed kernel;
	// hold it to Rule.Matches on every rule of the run, rules Validate would
	// reject included.
	packed := rule.PackRules(merged.Rules())
	for _, p := range pkts {
		for i, x := range merged.Rules() {
			if packed[i].Matches(p.Key()) != x.Matches(p) {
				t.Fatalf("step %d: packet %v rule %v: packed kernel disagrees with Rule.Matches", r.step, p, x)
			}
		}
	}
	checkView(t, r.step, "Insert/Delete", r.carried, r.base, r.baseSet, merged, r.dead, pkts)
	checkView(t, r.step, "NewView", scratch, r.base, r.baseSet, merged, r.dead, pkts)
	r.step++
}

// runViewOps applies the op sequence data encodes to a viewOpsRun: after
// every op the carried view has taken the op itself (View.Insert,
// View.Delete, or Base.View after a compaction), and check derives the same
// state from scratch and compares both with the model. It returns the
// largest overlay a view held.
//
// Most runs stop after 48 ops. One input in eight — a first byte of 0xE0 or
// more, which the op stream still reads as its first op — runs up to 192 and
// compacts, deletes the rule just inserted or empties the table on only one
// such op in sixteen, so its overlay can outgrow one 64-bit candidate-mask
// word.
func runViewOps(t *testing.T, data []byte) (maxOverlay int) {
	long := len(data) > 0 && data[0] >= 0xE0
	steps := 48
	if long {
		steps = 192
	}
	r := newViewOpsRun(t, data)
	s := r.s
	// rare reports whether an op a long run must mostly skip goes ahead.
	rare := func() bool { return !long || s.byte()%16 == 0 }
	for r.step < steps && len(s.data) > 0 {
		switch op := s.byte(); op % 12 {
		case 0, 1:
			r.insert(s.byte()%(r.merged.Len()+1), s.rule())
		case 2:
			r.insert(0, s.rule())
		case 3:
			r.insert(r.merged.Len(), s.rule())
		case 4:
			r.insert(0, rule.NewWildcardRule(0))
		case 5: // a duplicate of a live rule, somewhere else in the list
			if r.merged.Len() > 0 {
				r.insert(s.byte()%(r.merged.Len()+1), r.merged.Rule(s.byte()%r.merged.Len()))
			}
		case 6, 7: // delete a base rule
			if i := r.pick(s.byte(), true); i >= 0 {
				r.remove(i)
			}
		case 8: // delete an overlay rule
			if i := r.pick(s.byte(), false); i >= 0 {
				r.remove(i)
			}
		case 9: // compaction: the merged list becomes the base
			if rare() {
				r.compact()
			}
		case 10: // delete the rule just inserted, if it is still live
			if rare() {
				r.removeID(r.lastID)
			}
		case 11: // delete every rule, last to first
			if rare() {
				for r.merged.Len() > 0 {
					r.remove(r.merged.Len() - 1)
				}
			}
		}
		r.check()
	}
	return r.maxOverlay
}

// checkView holds one view of a runViewOps step to the reference model:
// merged, the list it must serve over base (built on baseSet), dead, the
// rules deleted so far, and pkts, the step's traffic. how names the
// derivation in failures.
func checkView(t *testing.T, step int, how string, v *View, base *Base, baseSet, merged *rule.Set, dead []rule.Rule, pkts []rule.Packet) {
	t.Helper()
	pending := 0
	for _, r := range merged.Rules() {
		if v.FromOverlay(r.ID) {
			pending++
		}
	}
	if v.OverlayLen() != pending || v.Tombstones() != baseSet.Len()-(merged.Len()-pending) {
		t.Fatalf("step %d, %s: overlay=%d tombstones=%d, model has %d overlay rules and %d of %d base rules live",
			step, how, v.OverlayLen(), v.Tombstones(), pending, merged.Len()-pending, baseSet.Len())
	}
	if v.Len() != merged.Len() {
		t.Fatalf("step %d, %s: Len %d, model %d", step, how, v.Len(), merged.Len())
	}
	for i, r := range merged.Rules() {
		if got := v.Rule(i); got != r {
			t.Fatalf("step %d, %s: Rule(%d) = %v, want %v", step, how, i, got, r)
		}
		if got := indexOf(v, r.ID); got != i {
			t.Fatalf("step %d, %s: indexOf(%d) = %d, want %d", step, how, r.ID, got, i)
		}
	}
	for _, r := range dead {
		if got := indexOf(v, r.ID); got != -1 {
			t.Fatalf("step %d, %s: indexOf(deleted %d) = %d, want -1", step, how, r.ID, got)
		}
		if _, ok := v.Delete(r.ID); ok {
			t.Fatalf("step %d, %s: Delete(deleted %d) found a rule", step, how, r.ID)
		}
		if _, inBase := base.indexByID[r.ID]; inBase {
			if _, err := v.Insert(0, r); err == nil {
				t.Fatalf("step %d, %s: Insert of dead base rule id %d accepted", step, how, r.ID)
			}
		}
	}
	for _, p := range pkts {
		want := merged.MatchIndex(p)
		got, ok := v.Classify(p)
		if ok != (want >= 0) || (ok && (got.Priority != want || got.ID != merged.Rule(want).ID)) || v.Lookup(p) != int32(want) {
			t.Fatalf("step %d, %s: packet %v: view (prio %d id %d, %v), linear search index %d",
				step, how, p, got.Priority, got.ID, ok, want)
		}
	}
	if step%8 != 7 {
		return // the batch path shares resolve; every eighth state is plenty
	}
	for _, n := range []int{1, 2, 255, 256} {
		ps := make([]rule.Packet, n)
		for i := range ps {
			ps[i] = pkts[i%len(pkts)]
		}
		rules, oks, pos := make([]rule.Rule, n), make([]bool, n), make([]int32, n)
		v.ClassifyBatch(ps, rules, oks)
		v.LookupBatch(ps, pos)
		for i, p := range ps {
			if want, ok := v.Classify(p); oks[i] != ok || rules[i] != want {
				t.Fatalf("step %d, %s: batch of %d, packet %d: batch (%v,%v) vs scalar (%v,%v)", step, how, n, i, rules[i], oks[i], want, ok)
			}
			if want := merged.MatchIndex(p); int(pos[i]) != want {
				t.Fatalf("step %d, %s: LookupBatch of %d, packet %d: position %d, linear search %d", step, how, n, i, pos[i], want)
			}
		}
	}
}

// TestViewOpsEdges runs hand-written op sequences through a viewOpsRun,
// checking after every op: inserts at 0 and at Len, deletes of a base rule,
// of an overlay rule and of the rule just inserted, an overlay past one
// candidate-mask word edited below the word boundary, and a table emptied
// and then given one rule, before and after a compaction.
func TestViewOpsEdges(t *testing.T) {
	traffic := make([]byte, 1<<16)
	rand.New(rand.NewSource(5)).Read(traffic)
	exact := (&opStream{data: []byte{1, 7, 1, 9, 1, 2, 1, 3, 1, 6}}).rule()
	cases := []struct {
		name string
		ops  []func(r *viewOpsRun)
	}{
		{"insert at 0 and at Len, delete both", []func(r *viewOpsRun){
			func(r *viewOpsRun) { r.insert(0, exact) },
			func(r *viewOpsRun) { r.insert(r.merged.Len(), exact) },
			func(r *viewOpsRun) { r.removeID(r.lastID) },
			func(r *viewOpsRun) { r.remove(0) },
		}},
		{"delete a base rule, an overlay rule, the rule just inserted", []func(r *viewOpsRun){
			func(r *viewOpsRun) { r.insert(3, exact) },
			func(r *viewOpsRun) { r.insert(40, rule.NewWildcardRule(0)) },
			func(r *viewOpsRun) { r.remove(r.pick(5, true)) },
			func(r *viewOpsRun) { r.remove(r.pick(0, false)) },
			func(r *viewOpsRun) { r.insert(10, exact) },
			func(r *viewOpsRun) { r.removeID(r.lastID) },
		}},
		{"empty the table, insert one", []func(r *viewOpsRun){
			func(r *viewOpsRun) { r.insert(7, exact) },
			func(r *viewOpsRun) {
				for r.merged.Len() > 0 {
					r.remove(r.merged.Len() / 2)
				}
			},
			func(r *viewOpsRun) { r.insert(0, exact) },
			func(r *viewOpsRun) { r.insert(1, rule.NewWildcardRule(0)) },
		}},
		// Each rule of the top block owns its protocol, so it alone wins the
		// packets steered into its box: a mask bit lost or misplaced as the
		// bits shift across the word boundary shows.
		{"overlay past a mask word, edited below the boundary", []func(r *viewOpsRun){
			func(r *viewOpsRun) {
				for k := 0; k < 70; k++ {
					x := rule.NewWildcardRule(0)
					x.Ranges[rule.DimSrcIP] = rule.Range{Lo: uint64(k) << 26, Hi: uint64(k)<<26 | 1<<25}
					x.Ranges[rule.DimProto] = rule.Range{Lo: uint64(100 + k), Hi: uint64(100 + k)}
					r.insert(0, x) // every insert shifts the block up a bit
				}
			},
			func(r *viewOpsRun) { r.insert(0, exact) },
			func(r *viewOpsRun) { r.remove(0) },
			func(r *viewOpsRun) { r.remove(0) },
			func(r *viewOpsRun) { r.insert(1, exact) },
			func(r *viewOpsRun) {
				for r.carried.OverlayLen() > 60 {
					r.remove(2)
				}
			},
		}},
		{"empty, compact, insert at 0 and at Len", []func(r *viewOpsRun){
			func(r *viewOpsRun) {
				for r.merged.Len() > 0 {
					r.remove(0)
				}
			},
			func(r *viewOpsRun) { r.compact() },
			func(r *viewOpsRun) { r.insert(0, exact) },
			func(r *viewOpsRun) { r.insert(r.merged.Len(), rule.NewWildcardRule(0)) },
			func(r *viewOpsRun) { r.removeID(r.lastID) },
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newViewOpsRun(t, traffic)
			for _, op := range tc.ops {
				op(r)
				r.check()
			}
		})
	}
}

// TestViewOpsProperty runs random op sequences through runViewOps; some of
// the long runs must carry an overlay across a mask-word boundary.
func TestViewOpsProperty(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 20
	}
	crossed := 0
	for seed := int64(0); seed < int64(runs); seed++ {
		// Traffic into every overlay and dead rule's box reads bytes too: a
		// long run needs tens of kilobytes to reach its step cap.
		data := make([]byte, 1<<16)
		rand.New(rand.NewSource(seed)).Read(data)
		if runViewOps(t, data) > 64 {
			crossed++
		}
	}
	if !testing.Short() && crossed == 0 {
		t.Errorf("no run's overlay outgrew one 64-bit mask word")
	}
	t.Logf("%d of %d runs carried more than 64 overlay rules", crossed, runs)
}

// FuzzViewOps lets the fuzzer write the op sequence: insert positions, rule
// shapes, which rules die, when compaction lands and where the traffic goes
// are all bytes of the input. Every op derives its view both ways, from the
// last view and from the whole list.
func FuzzViewOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 6, 79, 6, 0})                           // wildcard on top, then delete the catch-all and rule 0
	f.Add([]byte{2, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 8, 0, 9}) // exact rule on top, delete it, compact
	f.Add([]byte{5, 3, 3, 5, 3, 3, 6, 3, 6, 3, 9, 6, 3, 8, 0})
	f.Add([]byte{0, 200, 254, 1, 1, 255, 9, 9, 0, 0, 0, 0, 0, 0}) // unvalidatable ranges
	seed := make([]byte, 1024)
	rand.New(rand.NewSource(7)).Read(seed)
	f.Add(seed)
	long := make([]byte, 1<<16)
	rand.New(rand.NewSource(26)).Read(long)
	long[0] = 0xE0 // a long run, whose overlay reaches 87 rules
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) { runViewOps(t, data) })
}
