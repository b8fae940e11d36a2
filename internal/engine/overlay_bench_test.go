package engine

import (
	"fmt"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// BenchmarkOverlayBatch is the overlay layer's own micro: 256-packet
// Engine.ClassifyBatch calls (one shard, no flow cache) over acl1 10k
// CutSplit with 0, 64 and 128 inserted rules pending plus as many
// tombstones, both spread over the table, reported per packet with
// allocations. At 0 the engine serves the built backend directly.
func BenchmarkOverlayBatch(b *testing.B) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		b.Fatal(err)
	}
	set := classbench.Generate(fam, 10000, 1)
	eng, err := NewEngine("cutsplit", set, Options{Shards: 1, CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	var ps []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 16384, 7) {
		ps = append(ps, e.Key)
	}
	const batch = 256
	out := make([]Result, batch)
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
		b.Run(fmt.Sprintf("overlay=%d", pending), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := i * batch % len(ps)
				eng.ClassifyBatch(ps[lo:lo+batch], out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/pkt")
		})
	}
}
