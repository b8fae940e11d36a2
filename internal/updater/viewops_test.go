package updater

import (
	"math/rand"
	"testing"

	"neurocuts/internal/rule"
)

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

// runViewOps applies the op sequence data encodes to a reference model (a
// rule.Set edited in place) and, after every op, derives the view from
// scratch and checks it against linear search over the model.
func runViewOps(t *testing.T, data []byte) {
	s := &opStream{data: data}
	baseSet := viewOpsBase()
	base := testBaseBatch(t, baseSet)
	merged := baseSet.Clone()
	nextID := baseSet.Len()
	var dead []rule.Rule // deleted rules: their boxes keep getting traffic

	insert := func(pos int, r rule.Rule) {
		r.ID = nextID
		nextID++
		merged.Insert(pos, r)
	}
	// pick returns the merged index of the n-th rule that is (or is not) a
	// base rule, or -1 when there is none.
	pick := func(n int, wantBase bool) int {
		var idx []int
		for i, r := range merged.Rules() {
			if _, inBase := base.indexByID[r.ID]; inBase == wantBase {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return -1
		}
		return idx[n%len(idx)]
	}

	for step := 0; step < 48 && len(s.data) > 0; step++ {
		switch op := s.byte(); op % 10 {
		case 0, 1:
			insert(s.byte()%(merged.Len()+1), s.rule())
		case 2:
			insert(0, s.rule())
		case 3:
			insert(merged.Len(), s.rule())
		case 4:
			insert(0, rule.NewWildcardRule(0))
		case 5: // a duplicate of a live rule, somewhere else in the list
			if merged.Len() > 0 {
				insert(s.byte()%(merged.Len()+1), merged.Rule(s.byte()%merged.Len()))
			}
		case 6, 7: // delete a base rule
			if i := pick(s.byte(), true); i >= 0 {
				dead = append(dead, merged.Rule(i))
				merged.Remove(i)
			}
		case 8: // delete an overlay rule
			if i := pick(s.byte(), false); i >= 0 {
				dead = append(dead, merged.Rule(i))
				merged.Remove(i)
			}
		case 9: // compaction: the merged list becomes the base
			baseSet = merged.Clone()
			base = testBaseBatch(t, baseSet)
		}

		// A fresh clone per view: views keep their merged list, the model
		// keeps changing.
		v, err := NewView(base, merged.Clone())
		if err != nil {
			t.Fatalf("step %d: NewView: %v", step, err)
		}
		pending := 0
		for _, r := range merged.Rules() {
			if v.FromOverlay(r.ID) {
				pending++
			}
		}
		if v.OverlayLen() != pending || v.Tombstones() != baseSet.Len()-(merged.Len()-pending) {
			t.Fatalf("step %d: overlay=%d tombstones=%d, model has %d overlay rules and %d of %d base rules live",
				step, v.OverlayLen(), v.Tombstones(), pending, merged.Len()-pending, baseSet.Len())
		}
		for i, r := range merged.Rules() {
			if got := v.IndexOf(r.ID); got != i {
				t.Fatalf("step %d: IndexOf(%d) = %d, want %d", step, r.ID, got, i)
			}
		}

		// Traffic: every overlay rule's box, every deleted rule's box (base
		// winners that are tombstoned take the rescan, then the overlay
		// cutoff moves), and a few arbitrary packets.
		var pkts []rule.Packet
		for _, r := range merged.Rules() {
			if v.FromOverlay(r.ID) {
				pkts = append(pkts, s.steer(r))
			}
		}
		for _, r := range dead {
			if got := v.IndexOf(r.ID); got != -1 {
				t.Fatalf("step %d: IndexOf(deleted %d) = %d, want -1", step, r.ID, got)
			}
			pkts = append(pkts, s.steer(r))
		}
		for i := 0; i < 4; i++ {
			pkts = append(pkts, s.steer(s.rule()))
		}
		// The view's overlay scan and tombstone rescan run the packed kernel;
		// hold it to Rule.Matches on every rule of the run, rules Validate
		// would reject included.
		packed := rule.PackRules(merged.Rules())
		for _, p := range pkts {
			for i, r := range merged.Rules() {
				if packed[i].Matches(p.Key()) != r.Matches(p) {
					t.Fatalf("step %d: packet %v rule %v: packed kernel disagrees with Rule.Matches", step, p, r)
				}
			}
			want := merged.MatchIndex(p)
			got, ok := v.Classify(p)
			if ok != (want >= 0) || (ok && (got.Priority != want || got.ID != merged.Rule(want).ID)) || v.Lookup(p) != int32(want) {
				t.Fatalf("step %d: packet %v: view (prio %d id %d, %v), linear search index %d",
					step, p, got.Priority, got.ID, ok, want)
			}
		}
		if step%8 != 7 {
			continue // the batch path shares resolve; every eighth state is plenty
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
					t.Fatalf("step %d: batch of %d, packet %d: batch (%v,%v) vs scalar (%v,%v)", step, n, i, rules[i], oks[i], want, ok)
				}
				if want := merged.MatchIndex(p); int(pos[i]) != want {
					t.Fatalf("step %d: LookupBatch of %d, packet %d: position %d, linear search %d", step, n, i, pos[i], want)
				}
			}
		}
	}
}

// TestViewOpsProperty runs random op sequences through runViewOps.
func TestViewOpsProperty(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 20
	}
	for seed := int64(0); seed < int64(runs); seed++ {
		data := make([]byte, 4096)
		rand.New(rand.NewSource(seed)).Read(data)
		runViewOps(t, data)
	}
}

// FuzzViewOps lets the fuzzer write the op sequence: insert positions, rule
// shapes, which rules die, when compaction lands and where the traffic goes
// are all bytes of the input.
func FuzzViewOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 6, 79, 6, 0})                           // wildcard on top, then delete the catch-all and rule 0
	f.Add([]byte{2, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 8, 0, 9}) // exact rule on top, delete it, compact
	f.Add([]byte{5, 3, 3, 5, 3, 3, 6, 3, 6, 3, 9, 6, 3, 8, 0})
	f.Add([]byte{0, 200, 254, 1, 1, 255, 9, 9, 0, 0, 0, 0, 0, 0}) // unvalidatable ranges
	seed := make([]byte, 1024)
	rand.New(rand.NewSource(7)).Read(seed)
	f.Add(seed)
	f.Fuzz(runViewOps)
}
