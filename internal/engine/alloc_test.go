package engine

import (
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
)

// allocTestSet builds a small deterministic classifier for the allocation
// budget tests.
func allocTestSet(t testing.TB, size int) *rule.Set {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(fam, size, 1)
}

// allocTestPackets draws rule-biased packets so lookups traverse real rules
// rather than falling straight through to no-match.
func allocTestPackets(set *rule.Set, n int) []rule.Packet {
	entries := classbench.GenerateTrace(set, n, 7)
	ps := make([]rule.Packet, len(entries))
	for i, e := range entries {
		ps[i] = e.Key
	}
	return ps
}

// zeroAllocBackends are the backends whose lookup paths must not allocate:
// the linear-search reference plus compiled tree backends — hicuts (single
// tree, equal cuts) and cutsplit (multi-root, custom cuts, traversal stack)
// cover every instruction of the compiled Lookup path.
var zeroAllocBackends = []string{"linear", "hicuts", "cutsplit"}

// TestZeroAllocSinglePacket asserts the engine's single-packet lookup path
// performs zero heap allocations per operation.
func TestZeroAllocSinglePacket(t *testing.T) {
	set := allocTestSet(t, 128)
	ps := allocTestPackets(set, 64)
	for _, backend := range zeroAllocBackends {
		eng, err := NewEngine(backend, set, Options{})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			p := ps[i%len(ps)]
			i++
			eng.Classify(p)
		})
		eng.Close()
		if allocs != 0 {
			t.Errorf("%s: single-packet Classify allocates %.1f allocs/op, want 0", backend, allocs)
		}
	}
}

// TestZeroAllocSinglePacketWithFlowCache asserts the flow-cache path (both
// miss+fill and hit) stays allocation-free.
func TestZeroAllocSinglePacketWithFlowCache(t *testing.T) {
	set := allocTestSet(t, 128)
	ps := allocTestPackets(set, 64)
	for _, backend := range zeroAllocBackends {
		eng, err := NewEngine(backend, set, Options{FlowCacheEntries: 1024})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			p := ps[i%len(ps)]
			i++
			eng.Classify(p)
		})
		hits, misses := eng.CacheStats()
		eng.Close()
		if allocs != 0 {
			t.Errorf("%s: cached Classify allocates %.1f allocs/op, want 0", backend, allocs)
		}
		if hits == 0 {
			t.Errorf("%s: flow cache never hit (hits=%d misses=%d)", backend, hits, misses)
		}
	}
}

// TestZeroAllocBatchWithFlowCache asserts the cached batch path — probe,
// hits served from the rule list, misses gathered, classified and filled —
// stays allocation-free, over a cache that holds next to nothing and over
// one that holds the whole trace.
func TestZeroAllocBatchWithFlowCache(t *testing.T) {
	set := allocTestSet(t, 128)
	ps := allocTestPackets(set, 1024)
	out := make([]Result, len(ps))
	for _, backend := range zeroAllocBackends {
		for _, entries := range []int{8, 4096} {
			eng, err := NewEngine(backend, set, Options{FlowCacheEntries: entries})
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			eng.ClassifyBatch(ps, out) // warm up: size the scratch
			allocs := testing.AllocsPerRun(100, func() {
				eng.ClassifyBatch(ps, out)
			})
			hits, _ := eng.CacheStats()
			eng.Close()
			if allocs != 0 {
				t.Errorf("%s/cache=%d: cached ClassifyBatch allocates %.1f allocs/batch, want 0", backend, entries, allocs)
			}
			if hits == 0 {
				t.Errorf("%s/cache=%d: flow cache never hit", backend, entries)
			}
		}
	}
}

// TestZeroAllocBatchInline asserts the uncached ClassifyBatch path, which
// runs on the caller, performs zero allocations per batch.
func TestZeroAllocBatchInline(t *testing.T) {
	set := allocTestSet(t, 128)
	ps := allocTestPackets(set, 64)
	out := make([]Result, len(ps))
	for _, backend := range zeroAllocBackends {
		eng, err := NewEngine(backend, set, Options{})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			eng.ClassifyBatch(ps, out)
		})
		eng.Close()
		if allocs != 0 {
			t.Errorf("%s: inline ClassifyBatch allocates %.1f allocs/batch, want 0", backend, allocs)
		}
	}
}

// allocTestTelemetry builds a telemetry instance in its most expensive
// configuration for the pins below: flight recorder at threshold 0, so
// every single lookup and every batch span records a histogram sample AND
// a flight-recorder entry.
func allocTestTelemetry() *telemetry.Telemetry {
	tel := telemetry.New(telemetry.Config{})
	tel.SetSlowThreshold(0)
	return tel
}

// TestZeroAllocTelemetrySingle pins the single-packet path with full
// telemetry enabled (histogram sample + flight-recorder capture per
// lookup, flow cache on so both the hit and miss+fill branches record).
func TestZeroAllocTelemetrySingle(t *testing.T) {
	set := allocTestSet(t, 128)
	ps := allocTestPackets(set, 64)
	for _, backend := range zeroAllocBackends {
		tel := allocTestTelemetry()
		eng, err := NewEngine(backend, set, Options{FlowCacheEntries: 1024, Telemetry: tel})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			p := ps[i%len(ps)]
			i++
			eng.Classify(p)
		})
		eng.Close()
		if allocs != 0 {
			t.Errorf("%s: telemetry-enabled Classify allocates %.1f allocs/op, want 0", backend, allocs)
		}
		if tel.Lookup.Snapshot().Count() == 0 {
			t.Errorf("%s: telemetry recorded no single-lookup samples", backend)
		}
		if tel.Slow.Captured() == 0 {
			t.Errorf("%s: flight recorder captured nothing at threshold 0", backend)
		}
	}
}

// TestZeroAllocTelemetryBatch pins the batch path, for a small and a large
// batch, with full telemetry enabled (per-call histogram sample +
// flight-recorder capture).
func TestZeroAllocTelemetryBatch(t *testing.T) {
	set := allocTestSet(t, 128)
	small := allocTestPackets(set, 64)
	big := allocTestPackets(set, 1024)
	outSmall := make([]Result, len(small))
	outBig := make([]Result, len(big))
	for _, backend := range zeroAllocBackends {
		tel := allocTestTelemetry()
		eng, err := NewEngine(backend, set, Options{Telemetry: tel})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		eng.ClassifyBatch(big, outBig) // warm up: size the scratch outside measurement
		allocs := testing.AllocsPerRun(100, func() {
			eng.ClassifyBatch(small, outSmall)
		})
		if allocs != 0 {
			t.Errorf("%s: telemetry-enabled small ClassifyBatch allocates %.1f allocs/batch, want 0", backend, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			eng.ClassifyBatch(big, outBig)
		})
		eng.Close()
		if allocs != 0 {
			t.Errorf("%s: telemetry-enabled large ClassifyBatch allocates %.1f allocs/batch, want 0", backend, allocs)
		}
		if tel.LookupBatch.Snapshot().Count() == 0 {
			t.Errorf("%s: telemetry recorded no batch-span samples", backend)
		}
	}
}

// TestZeroAllocTelemetryOverlayUpdates pins the telemetry-enabled overlay
// serving path: with online updates pending (overlay rules and tombstones
// live), single lookups and 256-packet batches through the merged view must
// still record without allocating — including the flight recorder's
// overlay-winner attribution — and so must the updater's Rule-shaped
// wrappers over the same lists.
func TestZeroAllocTelemetryOverlayUpdates(t *testing.T) {
	set := allocTestSet(t, 128)
	ps := allocTestPackets(set, 256)
	out := make([]Result, len(ps))
	tel := allocTestTelemetry()
	eng, err := NewEngine("hicuts", set, Options{CompactThreshold: -1, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 8; i++ {
		if _, err := eng.Insert(i*16, set.Rule(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Delete(set.Rule(i*15 + 1).ID); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.UpdaterStats(); st.OverlayRules != 8 || st.Tombstones != 8 {
		t.Fatalf("overlay=%d tombstones=%d, want 8/8", st.OverlayRules, st.Tombstones)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := ps[i%len(ps)]
		i++
		eng.Classify(p)
	})
	if allocs != 0 {
		t.Errorf("overlay-serving telemetry-enabled Classify allocates %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { eng.ClassifyBatch(ps, out) }); allocs != 0 {
		t.Errorf("overlay-serving telemetry-enabled ClassifyBatch allocates %.1f allocs/batch, want 0", allocs)
	}
	if tel.UpdateInsert.Snapshot().Count() == 0 || tel.UpdateDelete.Snapshot().Count() == 0 {
		t.Error("telemetry recorded no insert- or delete-apply samples")
	}
	ruleWrappersZeroAlloc(t, eng, set, ps)
}
