package engine

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// TestFlowCacheCorrectness checks that cached answers agree with the
// uncached engine on a skewed trace.
func TestFlowCacheCorrectness(t *testing.T) {
	fam, err := classbench.FamilyByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 200, 3)
	cached, err := NewEngine("linear", set, Options{Shards: 1, FlowCacheEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	plain, err := NewEngine("linear", set, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	trace := classbench.ZipfTrace(set, 5000, 64, 1.2, 11)
	for i, e := range trace {
		cr, cok := cached.Classify(e.Key)
		pr, pok := plain.Classify(e.Key)
		if cok != pok || (cok && cr.ID != pr.ID) {
			t.Fatalf("packet %d: cached (%v,%v) != plain (%v,%v)", i, cr.ID, cok, pr.ID, pok)
		}
	}
	hits, misses := cached.CacheStats()
	if hits == 0 {
		t.Fatalf("zipf trace produced no cache hits (misses=%d)", misses)
	}
	// Zipf skew over 64 flows against 256 slots should hit far more often
	// than it misses.
	if float64(hits)/float64(hits+misses) < 0.5 {
		t.Errorf("hit rate %.2f suspiciously low for zipf traffic (hits=%d misses=%d)",
			float64(hits)/float64(hits+misses), hits, misses)
	}
}

// TestFlowCacheInvalidatedByUpdate checks that a rule update can never serve
// a stale cached result: the snapshot version bump turns every old entry
// into a miss.
func TestFlowCacheInvalidatedByUpdate(t *testing.T) {
	// Rule 0 matches SrcIP=10 only; a wildcard default sits behind it.
	specific := rule.NewWildcardRule(0)
	specific.Ranges[rule.DimSrcIP] = rule.Range{Lo: 10, Hi: 10}
	set := rule.NewSet([]rule.Rule{specific, rule.NewWildcardRule(1)})
	eng, err := NewEngine("linear", set, Options{Shards: 1, FlowCacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	p := rule.Packet{SrcIP: 10}
	before, ok := eng.Classify(p)
	if !ok || before.ID != 0 {
		t.Fatalf("expected rule 0 before update, got %v ok=%v", before.ID, ok)
	}
	eng.Classify(p) // cache hit for the old snapshot

	if _, err := eng.Delete(0); err != nil {
		t.Fatal(err)
	}
	after, ok := eng.Classify(p)
	if !ok {
		t.Fatal("default rule should still match")
	}
	if after.ID == 0 {
		t.Fatalf("cache served deleted rule 0 after update")
	}
}

// TestFlowCacheBatchPath checks the batch path also flows through the cache
// and agrees with ground truth. The whole batch is probed before any of it
// is filled, so the hits show on the second call.
func TestFlowCacheBatchPath(t *testing.T) {
	fam, err := classbench.FamilyByName("acl2")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 150, 5)
	eng, err := NewEngine("linear", set, Options{Shards: 4, FlowCacheEntries: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	trace := classbench.ZipfTrace(set, 2048, 32, 1.3, 21)
	ps := make([]rule.Packet, len(trace))
	for i, e := range trace {
		ps[i] = e.Key
	}
	out := make([]Result, len(ps))
	for pass := 0; pass < 2; pass++ {
		clear(out)
		eng.ClassifyBatch(ps, out)
		for i, e := range trace {
			want := e.MatchRule >= 0
			if out[i].OK != want {
				t.Fatalf("pass %d packet %d: ok=%v want %v", pass, i, out[i].OK, want)
			}
			if want && out[i].Rule != set.Rule(e.MatchRule) {
				t.Fatalf("pass %d packet %d: rule %d want %d", pass, i, out[i].Rule.ID, set.Rule(e.MatchRule).ID)
			}
		}
	}
	hits, misses := eng.CacheStats()
	if hits+misses != uint64(2*len(ps)) {
		t.Errorf("CacheStats counted %d probes for %d packets", hits+misses, 2*len(ps))
	}
	// Direct-mapped: two flows sharing a slot keep evicting each other.
	if hits < uint64(len(ps))*9/10 {
		t.Errorf("second pass over 32 flows in 512 slots hit %d of %d", hits, len(ps))
	}
}

// flowCacheKeys returns n distinct packets; with a handful of slots behind
// them they collide constantly.
func flowCacheKeys(n int) []rule.Packet {
	ps := make([]rule.Packet, n)
	for i := range ps {
		ps[i] = rule.Packet{SrcIP: uint32(i) * 2654435761, DstIP: uint32(i), SrcPort: uint16(i), DstPort: uint16(i >> 3), Proto: uint8(i)}
	}
	return ps
}

// flowCacheAnswer is the index the hammer stores for key k at generation
// gen — a function of both, so a hit that mixes one write's key with
// another's index, or survives a generation change, shows as a wrong value.
func flowCacheAnswer(k int, gen uint64) int32 {
	return int32((uint64(k)*7919+gen*104729)%100003) - 1 // -1 (cached no-match) included
}

// hammerFlowCache runs Get-else-Put over a few colliding slots and several
// generations from the given number of goroutines, and returns the hits.
func hammerFlowCache(t *testing.T, c *FlowCache, goroutines int) uint64 {
	t.Helper()
	keys := flowCacheKeys(64)
	var hits atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idx := make([]int32, len(keys))
			for it := 0; it < 4000; it++ {
				gen := uint64(1 + (it/500+g)%5)
				k := (it/2*31 + g*17) % len(keys) // each key twice running: the second probe can hit
				if got, hit := c.Get(keys[k], gen); hit {
					hits.Add(1)
					if want := flowCacheAnswer(k, gen); got != want {
						t.Errorf("Get(key %d, gen %d) = %d, want %d", k, gen, got, want)
						return
					}
				} else {
					c.Put(keys[k], gen, flowCacheAnswer(k, gen))
				}
				if it%64 == 0 {
					c.GetBatch(keys, gen, idx)
					for k, got := range idx {
						if got != FlowMiss && got != flowCacheAnswer(k, gen) {
							t.Errorf("GetBatch(key %d, gen %d) = %d, want %d", k, gen, got, flowCacheAnswer(k, gen))
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	return hits.Load()
}

// TestFlowCacheConcurrent is the cache's race probe (CI runs it under
// -race): eight goroutines on four slots, five generations. A torn or stale
// hit returns an index that is not the one function of (key, generation).
func TestFlowCacheConcurrent(t *testing.T) {
	c := NewFlowCache(4)
	if hits := hammerFlowCache(t, c, 8); hits == 0 {
		t.Error("no probe ever hit; the test proved nothing")
	}
}

// TestFlowCacheSingleOwner is the same run from one goroutine, the
// dataplane loop's use. With nobody to lose a slot to, a Put is never
// dropped: the entry is there on the next Get, under its generation only.
func TestFlowCacheSingleOwner(t *testing.T) {
	c := NewFlowCache(4)
	if hits := hammerFlowCache(t, c, 1); hits == 0 {
		t.Error("no probe ever hit")
	}
	for k, p := range flowCacheKeys(64) {
		c.Put(p, 9, flowCacheAnswer(k, 9))
		if got, hit := c.Get(p, 9); !hit || got != flowCacheAnswer(k, 9) {
			t.Fatalf("key %d: Get after Put = (%d, %v)", k, got, hit)
		}
		if _, hit := c.Get(p, 10); hit {
			t.Fatalf("key %d: entry of generation 9 hit at generation 10", k)
		}
	}
	if NewFlowCache(0) != nil {
		t.Error("NewFlowCache(0) should be the nil cache")
	}
	if h, m := (*FlowCache)(nil).Stats(); h != 0 || m != 0 {
		t.Errorf("nil cache Stats = (%d, %d)", h, m)
	}
}

// TestFlowCacheSurvivesCompaction: a compaction republishes the same rule
// list under a new version, so a warm cache must stay warm across it — for
// the rebuild the compactor goroutine runs on a threshold signal
// (compactOnce) and for the synchronous one SaveArtifact runs
// (compactLocked) — while an Insert, which changes the list, still turns
// every entry into a miss.
func TestFlowCacheSurvivesCompaction(t *testing.T) {
	set := overlayTestSet(t, 300)
	// No background compactor: the test calls the rebuild itself, in order.
	eng, err := NewEngine("hicuts", set, Options{Shards: 1, FlowCacheEntries: 1024, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Keep one flow per slot, so that a warm pass misses nothing at all.
	var ps []rule.Packet
	owner := map[*flowSlot]rule.Packet{}
	for _, e := range classbench.ZipfTrace(set, 512, 64, 1.2, 5) {
		sl := eng.cache.slot(e.Key)
		if first, taken := owner[sl]; taken && first != e.Key {
			continue
		}
		owner[sl] = e.Key
		ps = append(ps, e.Key)
	}
	out := make([]Result, len(ps))
	// pass classifies the trace, checks it and returns the misses it cost.
	pass := func(when string) uint64 {
		t.Helper()
		_, m0 := eng.CacheStats()
		eng.ClassifyBatch(ps, out)
		rules := eng.Rules()
		for i, p := range ps {
			want, ok := rules.Match(p)
			if out[i].OK != ok || out[i].Rule != want {
				t.Fatalf("%s: packet %d: got (%d, %v), want (%d, %v)", when, i, out[i].Rule.ID, out[i].OK, want.ID, ok)
			}
		}
		_, m1 := eng.CacheStats()
		return m1 - m0
	}
	insert := func() {
		t.Helper()
		if _, err := eng.Insert(0, set.Rule(7)); err != nil {
			t.Fatal(err)
		}
	}

	insert()
	if m := pass("cold"); m != uint64(len(ps)) {
		t.Fatalf("cold pass missed %d of %d", m, len(ps))
	}
	if m := pass("warm"); m != 0 {
		t.Fatalf("warm pass missed %d", m)
	}
	ver := eng.Version()
	eng.compactOnce()
	if st := eng.UpdaterStats(); st.Compactions != 1 || eng.Version() != ver+1 || st.OverlayRules != 0 {
		t.Fatalf("compactOnce: %d compactions, version %d -> %d, %d overlay rules", st.Compactions, ver, eng.Version(), st.OverlayRules)
	}
	if m := pass("after threshold compaction"); m != 0 {
		t.Errorf("compaction cost a warm cache %d misses", m)
	}

	insert()
	if m := pass("after insert"); m != uint64(len(ps)) {
		t.Errorf("a pass after an Insert missed %d of %d", m, len(ps))
	}
	if m := pass("warm again"); m != 0 {
		t.Fatalf("warm pass missed %d", m)
	}
	if err := eng.SaveArtifact(filepath.Join(t.TempDir(), "saved.ncaf")); err != nil {
		t.Fatal(err)
	}
	if st := eng.UpdaterStats(); st.Compactions != 2 {
		t.Fatalf("SaveArtifact over a pending overlay ran %d compactions, want 2 in total", st.Compactions)
	}
	if m := pass("after SaveArtifact"); m != 0 {
		t.Errorf("SaveArtifact's compaction cost a warm cache %d misses", m)
	}
}
