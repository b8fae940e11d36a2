package engine

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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
	cached, err := NewEngine("linear", set, Options{FlowCacheEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	plain, err := NewEngine("linear", set, Options{})
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
// into a miss, for a single lookup and for a batch submitted after the
// update returned.
func TestFlowCacheInvalidatedByUpdate(t *testing.T) {
	// Rule 0 matches SrcIP=10 only; a wildcard default sits behind it.
	specific := rule.NewWildcardRule(0)
	specific.Ranges[rule.DimSrcIP] = rule.Range{Lo: 10, Hi: 10}
	set := rule.NewSet([]rule.Rule{specific, rule.NewWildcardRule(1)})
	eng, err := NewEngine("linear", set, Options{FlowCacheEntries: 64})
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

	// The batch path through a warm cache: a batch submitted after Insert or
	// Delete returned is served entirely from the new generation.
	ps := []rule.Packet{p, {SrcIP: 11}, {DstIP: 7, Proto: 6}}
	out := make([]Result, len(ps))
	for i := 0; i < 20; i++ {
		eng.ClassifyBatch(ps, out)
		eng.ClassifyBatch(ps, out)
		res, err := eng.Insert(0, rule.NewWildcardRule(-1))
		if err != nil {
			t.Fatal(err)
		}
		eng.ClassifyBatch(ps, out)
		for j, r := range out {
			if !r.OK || r.Rule.ID != res.ID {
				t.Fatalf("iteration %d packet %d: batch after Insert got rule %d (ok=%v), want the inserted %d", i, j, r.Rule.ID, r.OK, res.ID)
			}
		}
		if _, err := eng.Delete(res.ID); err != nil {
			t.Fatal(err)
		}
		eng.ClassifyBatch(ps, out)
		for j, r := range out {
			if !r.OK || r.Rule.ID == res.ID {
				t.Fatalf("iteration %d packet %d: batch after Delete got rule %d (ok=%v), want the default", i, j, r.Rule.ID, r.OK)
			}
		}
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
	eng, err := NewEngine("linear", set, Options{FlowCacheEntries: 512})
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
	// 32 flows over 128 four-way sets: the second pass misses next to
	// nothing.
	if hits < uint64(len(ps))*9/10 {
		t.Errorf("second pass over 32 flows in 512 slots hit %d of %d", hits, len(ps))
	}
}

// flowCacheKeys returns n distinct packets; with a handful of sets behind
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

// hammerFlowCache runs Get-else-Put over a few colliding sets and several
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
			hs := make([]uint64, len(keys))
			for it := 0; it < 4000; it++ {
				gen := uint64(1 + (it/500+g)%5)
				k := (it/2*31 + g*17) % len(keys) // each key twice running: the second probe can hit
				if got, hit, h := c.Get(keys[k], gen); hit {
					hits.Add(1)
					if want := flowCacheAnswer(k, gen); got != want {
						t.Errorf("Get(key %d, gen %d) = %d, want %d", k, gen, got, want)
						return
					}
				} else {
					c.Put(h, keys[k], gen, flowCacheAnswer(k, gen))
				}
				if it%64 == 0 {
					c.GetBatch(keys, gen, idx, hs)
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
// -race): eight goroutines on one four-way set, five generations. A torn or
// stale hit returns an index that is not the one function of (key,
// generation).
func TestFlowCacheConcurrent(t *testing.T) {
	c := NewFlowCache(4)
	if len(c.sets) != 1 {
		t.Fatalf("NewFlowCache(4) has %d sets; the hammer needs every key in one", len(c.sets))
	}
	if hits := hammerFlowCache(t, c, 8); hits == 0 {
		t.Error("no probe ever hit; the test proved nothing")
	}
}

// TestFlowCacheSingleOwner is the same run from one goroutine, a private
// cache's use (View.ClassifyCached). With nobody to lose a slot to, a Put is
// never dropped: the entry is there on the next Get, under its generation
// only.
func TestFlowCacheSingleOwner(t *testing.T) {
	c := NewFlowCache(4)
	if hits := hammerFlowCache(t, c, 1); hits == 0 {
		t.Error("no probe ever hit")
	}
	for k, p := range flowCacheKeys(64) {
		c.Put(hashPacket(p), p, 9, flowCacheAnswer(k, 9))
		if got, hit, _ := c.Get(p, 9); !hit || got != flowCacheAnswer(k, 9) {
			t.Fatalf("key %d: Get after Put = (%d, %v)", k, got, hit)
		}
		if _, hit, _ := c.Get(p, 10); hit {
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
	eng, err := NewEngine("hicuts", set, Options{FlowCacheEntries: 1024, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Keep at most four flows per set, so that a warm pass misses nothing
	// at all.
	var ps []rule.Packet
	flows := map[*flowSet][]rule.Packet{}
	for _, e := range classbench.ZipfTrace(set, 512, 64, 1.2, 5) {
		fs := eng.cache.set(hashPacket(e.Key))
		if !slices.Contains(flows[fs], e.Key) {
			if len(flows[fs]) == flowWays {
				continue
			}
			flows[fs] = append(flows[fs], e.Key)
		}
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

// setKeys returns n distinct packets whose flow hashes all index set 0 of c,
// with each key's flow hash.
func setKeys(c *FlowCache, n int) ([]rule.Packet, []uint64) {
	var ps []rule.Packet
	var hs []uint64
	for i := uint32(1); len(ps) < n; i++ {
		p := rule.Packet{SrcIP: i, DstIP: i * 2654435761, DstPort: 443, Proto: 6}
		if h := hashPacket(p); c.set(h) == &c.sets[0] {
			ps, hs = append(ps, p), append(hs, h)
		}
	}
	return ps, hs
}

// TestFlowCacheSetResidency pins the placement rule on one set: four keys
// that share it all stay resident, a flow put twice takes one way, a fifth
// live key evicts exactly the way its hash names, and a way left stale by a
// generation change is reused before any live one.
func TestFlowCacheSetResidency(t *testing.T) {
	c := NewFlowCache(64)
	keys, hs := setKeys(c, 64)
	resident := func(gen uint64, ks ...int) []int {
		var in []int
		for _, k := range ks {
			if got, hit, _ := c.Get(keys[k], gen); hit {
				if got != flowCacheAnswer(k, gen) {
					t.Fatalf("key %d at generation %d: got %d, want %d", k, gen, got, flowCacheAnswer(k, gen))
				}
				in = append(in, k)
			}
		}
		return in
	}
	put := func(gen uint64, k int) { c.Put(hs[k], keys[k], gen, flowCacheAnswer(k, gen)) }

	put(1, 0) // twice: the second Put must reuse the first's way
	for k := 0; k < flowWays; k++ {
		put(1, k)
	}
	if in := resident(1, 0, 1, 2, 3); len(in) != flowWays {
		t.Fatalf("after four Puts into one set only keys %v hit", in)
	}
	// Keys 0..3 sit in ways 0..3 in Put order, so the fifth key's victim way
	// names the one key it must evict.
	put(1, 4)
	victim := int(hs[4] >> 62)
	in := resident(1, 0, 1, 2, 3, 4)
	if len(in) != flowWays || slices.Contains(in, victim) || !slices.Contains(in, 4) {
		t.Fatalf("a fifth key with victim way %d left keys %v resident", victim, in)
	}

	// At generation 2 every way is stale: three new keys take ways 0..2 and
	// the stale way 3 must go to the fourth, whatever way its hash names.
	c = NewFlowCache(64)
	for k := 0; k < flowWays; k++ {
		put(1, k)
	}
	for k := 4; k < 7; k++ {
		put(2, k)
	}
	last := 7
	for int(hs[last]>>62) == flowWays-1 {
		last++ // a key whose victim way is a live one
	}
	put(2, last)
	if in := resident(2, 4, 5, 6, last); len(in) != flowWays {
		t.Fatalf("the stale way was not reused first: at generation 2 only keys %v of [4 5 6 %d] hit", in, last)
	}
	if in := resident(1, 0, 1, 2, 3); len(in) != 0 {
		t.Fatalf("generation-1 entries %v still hit at generation 1 after every way was refilled", in)
	}
}

// TestFlowCacheZipfHitRatio is the flow_zipf workload's cache shape: 8 192
// Zipf(1.1) flows into 16 384 entries. After one warming pass, four ways
// must answer at least 99 % of a second pass (a direct-mapped cache of the
// same size answers 95.1 %).
func TestFlowCacheZipfHitRatio(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 1000, 1)
	trace := classbench.ZipfTrace(set, 262144, 8192, 1.1, 1)
	c := NewFlowCache(16384)
	var hits int
	for pass := 0; pass < 2; pass++ {
		hits = 0
		for _, e := range trace {
			if got, hit, h := c.Get(e.Key, 1); hit {
				if got != int32(e.MatchRule) {
					t.Fatalf("cached %d, want %d", got, e.MatchRule)
				}
				hits++
			} else {
				c.Put(h, e.Key, 1, int32(e.MatchRule))
			}
		}
	}
	if ratio := float64(hits) / float64(len(trace)); ratio < 0.99 {
		t.Errorf("second-pass hit ratio %.4f, want >= 0.99", ratio)
	}
}

// TestFlowCacheSetAlignment asserts that every set starts on a 128-byte
// boundary (two whole cache lines; Go slice allocations alone only
// guarantee 8) and that the budget rounds up to whole sets.
func TestFlowCacheSetAlignment(t *testing.T) {
	if size := unsafe.Sizeof(flowSet{}); size != 128 {
		t.Fatalf("a set is %d bytes, layout pinned at 128", size)
	}
	for _, entries := range []int{1, 3, 4, 5, 64, 1000, 16384} {
		c := NewFlowCache(entries)
		if n := len(c.sets) * flowWays; n < entries || n&(n-1) != 0 || uint64(len(c.sets)-1) != c.mask {
			t.Errorf("NewFlowCache(%d): %d entries, mask %#x", entries, n, c.mask)
		}
		if addr := uintptr(unsafe.Pointer(&c.sets[0])); addr%128 != 0 {
			t.Errorf("NewFlowCache(%d): sets at %#x not 128-byte aligned", entries, addr)
		}
	}
}

// TestFlowCacheBudgetCap: a budget past MaxFlowCacheEntries is an error
// from both engine constructors, returned before anything is allocated.
// Before the cap, 2^62+1 entries hung NewFlowCache (its doubling loop
// wrapped to 0) and a few GiB of entries panicked in make. NewFlowCache
// itself panics with the cap in the message.
func TestFlowCacheBudgetCap(t *testing.T) {
	set := overlayTestSet(t, 50)
	path := filepath.Join(t.TempDir(), "cap.ncaf")
	eng, err := NewEngine("hicuts", set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveArtifact(path); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	for _, entries := range []int{1<<62 + 1, 1 << 34, MaxFlowCacheEntries + 1} {
		done := make(chan [2]error, 1)
		go func() {
			_, errBuild := NewEngine("linear", set, Options{FlowCacheEntries: entries})
			_, errLoad := NewEngineFromArtifact(path, Options{FlowCacheEntries: entries})
			done <- [2]error{errBuild, errLoad}
		}()
		select {
		case errs := <-done:
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
					t.Errorf("entries %d, constructor %d: err = %v, want the cap error", entries, i, err)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("NewEngine with %d flow cache entries has not returned", entries)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MaxFlowCacheEntries") {
			t.Errorf("NewFlowCache(MaxFlowCacheEntries+1) recovered %v, want the cap panic", r)
		}
	}()
	NewFlowCache(MaxFlowCacheEntries + 1)
}
