package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// BenchmarkOverlayBatch is the overlay layer's own micro: 256-packet
// Engine.ClassifyBatch calls (one shard, no flow cache) over acl1 10k
// CutSplit, reported per packet with allocations.
//
// The overlay legs hold 0, 64 and 128 inserted copies of base rules plus as
// many tombstones of trace winners, both spread over the table: every copy
// wins its packets and a share of packets rescan the base past a tombstone.
// At 0 the engine serves the built backend directly.
//
// The churn legs are the benchmark's update_churn at its fills: 384 copies of
// a 64-rule reserve folded into the base at random positions, then 64, 128
// and 256 pending updates alternating an insert of a reserve copy at a random
// position with a delete of the oldest folded copy. There almost no packet is
// won by an overlay rule or a tombstoned one, so the legs price the probe
// itself.
func BenchmarkOverlayBatch(b *testing.B) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		b.Fatal(err)
	}
	set := classbench.Generate(fam, 10000, 1)
	var ps []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 16384, 7) {
		ps = append(ps, e.Key)
	}
	const batch = 256
	out := make([]Result, batch)
	run := func(name string, eng *Engine) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := i * batch % len(ps)
				eng.ClassifyBatch(ps[lo:lo+batch], out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/pkt")
		})
	}

	eng, err := NewEngine("cutsplit", set, Options{Shards: 1, CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	applied := 0
	for _, pending := range []int{0, 64, 128} {
		for ; applied < pending; applied++ {
			if _, err := eng.Insert(applied*eng.Rules().Len()/128, set.Rule(applied*37%set.Len())); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Delete(set.Rule(applied*(set.Len()-1)/128 + 1).ID); err != nil {
				b.Fatal(err)
			}
		}
		run(fmt.Sprintf("overlay=%d", pending), eng)
	}

	reserve := classbench.Generate(fam, 65, 2).Rules()[:64] // the last is the catch-all
	rng := rand.New(rand.NewSource(3))
	folded := set.Clone()
	const foldedN = 384
	for k := 0; k < foldedN; k++ {
		r := reserve[k%len(reserve)]
		r.ID = set.Len() + k
		folded.Insert(rng.Intn(set.Len()), r)
	}
	churn, err := NewEngine("cutsplit", folded, Options{Shards: 1, CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer churn.Close()
	applied = 0
	for _, pending := range []int{64, 128, 256} {
		for ; applied < pending; applied++ {
			if applied%2 == 0 {
				_, err = churn.Insert(rng.Intn(set.Len()), reserve[(foldedN+applied)%len(reserve)])
			} else {
				_, err = churn.Delete(set.Len() + applied/2)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		run(fmt.Sprintf("churn=%d", pending), churn)
	}
}
