package updater

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// maskEdgeRules are hand-made overlay rules whose address ranges the
// candidate masks must clip, skip or split at a /8 edge: wildcards, /0-/7
// prefixes, ranges straddling an edge, empty ranges, and Hi beyond 32 bits
// (partly and wholly). Each carries its own protocol, so rules stacked at the
// top of a list do not shadow one another's boxes.
func maskEdgeRules() []rule.Rule {
	const beyond = uint64(1) << 32
	addrs := [][2]rule.Range{
		{{Lo: 0, Hi: math.MaxUint32}, {Lo: 0, Hi: math.MaxUint32}},                       // wildcards
		{{Lo: 0, Hi: 1<<25 - 1}, {Lo: 1 << 31, Hi: math.MaxUint32}},                      // /7, /1
		{{Lo: 0x48000000, Hi: 0x4FFFFFFF}, {Lo: 0xE0000000, Hi: math.MaxUint32}},         // /5, /3
		{{Lo: 0, Hi: math.MaxUint32}, {Lo: 0, Hi: 0x7FFFFFFF}},                           // /0, /1
		{{Lo: 0x0AFFFFF0, Hi: 0x0B00000F}, {Lo: 0xC0FFFF00, Hi: 0xC10000FF}},             // straddle one edge
		{{Lo: 0x0AFFFFFF, Hi: 0x0AFFFFFF}, {Lo: 0x0B000000, Hi: 0x0B000000}},             // exact, on an edge
		{{Lo: 0x01FFFFFF, Hi: 0x05000000}, {Lo: 0x0A000000, Hi: 0x0AFFFFFF}},             // several /8s, one /8
		{{Lo: 0x0A000005, Hi: 0x0A000001}, {Lo: 0, Hi: math.MaxUint32}},                  // empty source
		{{Lo: 0, Hi: math.MaxUint32}, {Lo: 0x14000000, Hi: 0x13FFFFFF}},                  // empty destination
		{{Lo: 0xFF000000, Hi: beyond + 5}, {Lo: 0xFE123456, Hi: 1 << 40}},                // Hi beyond 32 bits
		{{Lo: 0, Hi: 1 << 33}, {Lo: 0x7F000000, Hi: beyond}},                             // /0 and more
		{{Lo: beyond, Hi: beyond + 10}, {Lo: 0, Hi: math.MaxUint32}},                     // wholly beyond
		{{Lo: 0x0A000000, Hi: 0x0AFFFFFF}, {Lo: beyond + 1, Hi: math.MaxUint64}},         // wholly beyond
		{{Lo: 0xFFFFFFFF, Hi: math.MaxUint64}, {Lo: 0xFEFFFFFF, Hi: 0xFF000000}},         // last address
		{{Lo: 0x00FFFFFF, Hi: 0x01000000}, {Lo: 0x00000000, Hi: 0x00000000}},             // first /8 edge
		{{Lo: 0x80000000, Hi: 0x80FFFFFF}, {Lo: 0x7FFFFFFF, Hi: 0x80000000}},             // mid-space edge
		{{Lo: 0x02000000, Hi: 0x03FFFFFF}, {Lo: 0x3C000000, Hi: math.MaxUint32 + 1<<24}}, // /7, Hi a /8 past
	}
	rules := make([]rule.Rule, len(addrs))
	for i, a := range addrs {
		rules[i] = rule.NewWildcardRule(0)
		rules[i].Ranges[rule.DimSrcIP], rules[i].Ranges[rule.DimDstIP] = a[0], a[1]
		rules[i].Ranges[rule.DimProto] = rule.Range{Lo: uint64(200 + i), Hi: uint64(200 + i)}
	}
	return rules
}

// edgePackets returns packets inside r's box except for one address, which
// sits on either side of the /8 edges that bound r's range of it after
// clipping: x.255.255.255 and x+1.0.0.0 below and above the range.
func edgePackets(s *opStream, r rule.Rule) []rule.Packet {
	var ps []rule.Packet
	for _, d := range []rule.Dimension{rule.DimSrcIP, rule.DimDstIP} {
		lo, hi := r.Ranges[d].Lo, min(r.Ranges[d].Hi, math.MaxUint32)
		if lo > hi {
			continue
		}
		for _, a := range []uint64{lo&^0xFFFFFF - 1, lo &^ 0xFFFFFF, hi | 0xFFFFFF, hi | 0xFFFFFF + 1} {
			if a > math.MaxUint32 {
				continue // below 0.0.0.0 or above 255.255.255.255
			}
			p := s.steer(r)
			if d == rule.DimSrcIP {
				p.SrcIP = uint32(a)
			} else {
				p.DstIP = uint32(a)
			}
			ps = append(ps, p)
		}
	}
	return ps
}

// TestOverlayCandidateMasks holds the overlay probe — two address-byte mask
// rows ANDed, the candidates walked in merged order up to the base winner's
// rank, the base winner's position counted over the overlay's ranks — to
// linear search over the merged list. Overlays of 1 to 600 rules (past
// stackOverlay, so every mask-word boundary is crossed) sit over acl1, fw1 and
// ipc1 tables with a share of the base tombstoned; the hand-made edge rules
// sit at the top of the list, where they win their own boxes. Traffic goes
// into every overlay rule's box, every deleted rule's box, both sides of each
// /8 edge an overlay rule's address ranges end at, and a generated trace.
func TestOverlayCandidateMasks(t *testing.T) {
	edgeRules := maskEdgeRules()
	for _, name := range []string{"acl1", "fw1", "ipc1"} {
		fam, err := classbench.FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		set := classbench.Generate(fam, 1000, 11)
		b := testBaseBatch(t, set)
		inserts := classbench.Generate(fam, 601, 12).Rules()[:600] // the last is the catch-all
		for _, n := range []int{1, 63, 64, 65, 128, 256, 600} {
			t.Run(fmt.Sprintf("%s/overlay=%d", name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				s := &opStream{data: make([]byte, 1<<17)}
				rng.Read(s.data)

				merged := set.Clone()
				var dead []rule.Rule
				for k := 0; k < max(1, n/2); k++ {
					i := rng.Intn(merged.Len())
					dead = append(dead, merged.Rule(i))
					merged.Remove(i)
				}
				nextID := set.Len()
				nEdge := min(n, len(edgeRules))
				for _, r := range inserts[:n-nEdge] {
					r.ID, nextID = nextID, nextID+1
					merged.Insert(rng.Intn(merged.Len()+1), r)
				}
				for k, r := range edgeRules[:nEdge] {
					r.ID, nextID = nextID, nextID+1
					merged.Insert(rng.Intn(k+1), r)
				}

				v, err := NewView(b, merged)
				if err != nil {
					t.Fatal(err)
				}
				if v.OverlayLen() != n || v.Tombstones() != len(dead) {
					t.Fatalf("overlay=%d tombstones=%d, want %d/%d", v.OverlayLen(), v.Tombstones(), n, len(dead))
				}

				var ps []rule.Packet
				for _, r := range merged.Rules() {
					if v.FromOverlay(r.ID) {
						ps = append(ps, s.steer(r))
						ps = append(ps, edgePackets(s, r)...)
					}
				}
				for _, r := range dead {
					ps = append(ps, s.steer(r))
				}
				for _, e := range classbench.GenerateTrace(merged, 256, int64(n)) {
					ps = append(ps, e.Key)
				}

				pos := make([]int32, len(ps))
				rules, oks := make([]rule.Rule, len(ps)), make([]bool, len(ps))
				v.LookupBatch(ps, pos)
				v.ClassifyBatch(ps, rules, oks)
				for i, p := range ps {
					want := merged.MatchIndex(p)
					if got := v.Lookup(p); int(got) != want {
						t.Fatalf("packet %v: Lookup %d, linear search %d", p, got, want)
					}
					if int(pos[i]) != want {
						t.Fatalf("packet %v: LookupBatch %d, linear search %d", p, pos[i], want)
					}
					if oks[i] != (want >= 0) || (oks[i] && (rules[i].Priority != want || rules[i].ID != merged.Rule(want).ID)) {
						t.Fatalf("packet %v: ClassifyBatch (prio %d id %d, %v), linear search %d", p, rules[i].Priority, rules[i].ID, oks[i], want)
					}
				}
			})
		}
	}
}
