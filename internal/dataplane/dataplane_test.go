package dataplane

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// testSet builds a deterministic ClassBench rule set.
func testSet(t testing.TB, size int, seed int64) *rule.Set {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(fam, size, seed)
}

// testPackets draws rule-biased packets (with flow bursts) so lookups
// traverse real rules and the flow cache sees recurring tuples.
func testPackets(set *rule.Set, n int, seed int64) []rule.Packet {
	entries := classbench.GenerateTrace(set, n, seed)
	ps := make([]rule.Packet, len(entries))
	for i, e := range entries {
		ps[i] = e.Key
	}
	return ps
}

// waitFolded waits for the engine's compaction to have folded every pending
// update into its n-th rebuilt base.
func waitFolded(t *testing.T, eng *engine.Engine, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st := eng.UpdaterStats()
		if st.Compactions == n && st.OverlayRules+st.Tombstones == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction %d never came: %+v", n, st)
		}
	}
}

// TestDifferentialAgainstWorkerPool holds the private-cache path to linear
// search over the engine's current rule list, and to the engine's own
// ClassifyBatch, across rule updates: each round classifies the trace twice
// (the second pass through a warm cache), then inserts or deletes a
// top-priority wildcard, so the next round must be served from the new
// generation. online=true serves every update from the overlay;
// online=false has a compaction fold each one into a rebuilt base first.
func TestDifferentialAgainstWorkerPool(t *testing.T) {
	const rounds = 4
	for _, backend := range []string{"hicuts", "linear"} {
		for _, online := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s_online=%v", backend, online), func(t *testing.T) {
				set := testSet(t, 400, 3)
				opts := engine.Options{CompactThreshold: -1}
				if !online {
					opts.CompactThreshold = 1
				}
				eng, err := engine.NewEngine(backend, set, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				dp, err := Attach(eng, Config{Cores: 4, CacheEntries: 2048})
				if err != nil {
					t.Fatal(err)
				}

				ps := testPackets(set, 3000, 11)
				got := make([]engine.Result, len(ps))
				want := make([]engine.Result, len(ps))
				for round := 0; round < rounds; round++ {
					rules := eng.Rules()
					eng.ClassifyBatch(ps, want)
					for pass := 0; pass < 2; pass++ {
						dp.ClassifyBatch(ps, got)
						for i, p := range ps {
							r, ok := rules.Match(p)
							if got[i] != (engine.Result{Rule: r, OK: ok}) || got[i] != want[i] {
								t.Fatalf("round %d pass %d packet %d: dataplane %+v, engine %+v, linear search (%+v, %v)",
									round, pass, i, got[i], want[i], r, ok)
							}
						}
					}
					if round%2 == 0 {
						if _, err := eng.Insert(0, rule.NewWildcardRule(-1)); err != nil {
							t.Fatal(err)
						}
					} else {
						if _, err := eng.Delete(eng.Rules().Rule(0).ID); err != nil {
							t.Fatal(err)
						}
					}
					if !online {
						waitFolded(t, eng, uint64(round+1))
					}
				}
				st := dp.Stats()
				if st.Batches != 2*rounds || st.PerCore != nil {
					t.Errorf("Stats: %d batches (want %d), PerCore %v (want nil)", st.Batches, 2*rounds, st.PerCore)
				}
				if st.CacheHits == 0 || st.CacheHits+st.CacheMisses != uint64(2*rounds*len(ps)) {
					t.Errorf("cache counted %d hits + %d misses for %d packets", st.CacheHits, st.CacheMisses, 2*rounds*len(ps))
				}
			})
		}
	}
}

// TestZeroAllocHotPath pins the steady-state batch path at zero
// allocations, cached and uncached, in the benchmark's configuration:
// engine cache off, the private cache on.
func TestZeroAllocHotPath(t *testing.T) {
	set := testSet(t, 128, 1)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ps := testPackets(set, 256, 7)
	out := make([]engine.Result, len(ps))
	for _, entries := range []int{1024, 0} {
		dp, err := Attach(eng, Config{Cores: 2, CacheEntries: entries})
		if err != nil {
			t.Fatal(err)
		}
		dp.ClassifyBatch(ps, out) // fill the cache and the engine's scratch
		if allocs := testing.AllocsPerRun(100, func() {
			dp.ClassifyBatch(ps, out)
		}); allocs != 0 {
			t.Errorf("CacheEntries %d: ClassifyBatch allocates %.1f allocs/op, want 0", entries, allocs)
		}
	}
}

// TestEpochOrdering pins the update guarantee through a warm private cache:
// a batch submitted after Insert (or Delete) returned must be served from
// the new rule generation. Run many times so a stale cache entry would be
// caught.
func TestEpochOrdering(t *testing.T) {
	set := testSet(t, 200, 5)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dp, err := Attach(eng, Config{Cores: 4, CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}

	ps := testPackets(set, 1, 9)
	out := make([]engine.Result, 1)
	for i := 0; i < 50; i++ {
		dp.ClassifyBatch(ps, out) // warm the cache on the current generation
		// A top-priority wildcard matches every packet, including ps[0].
		res, err := eng.Insert(0, rule.NewWildcardRule(-1))
		if err != nil {
			t.Fatal(err)
		}
		if dp.ClassifyBatch(ps, out); !out[0].OK || out[0].Rule.ID != res.ID {
			t.Fatalf("iteration %d: lookup after Insert returned rule %d (ok=%v), want the just-inserted %d", i, out[0].Rule.ID, out[0].OK, res.ID)
		}
		if _, err := eng.Delete(res.ID); err != nil {
			t.Fatal(err)
		}
		if dp.ClassifyBatch(ps, out); out[0].OK && out[0].Rule.ID == res.ID {
			t.Fatalf("iteration %d: lookup after Delete still matched the deleted rule %d", i, res.ID)
		}
	}
	if st := dp.Stats(); st.CacheHits == 0 {
		t.Fatal("the warm cache served no hits between updates")
	}
}

// TestPerCoreCacheHits checks the private cache actually serves repeats:
// a recurring trace must produce hits, and every packet must be counted
// exactly once as a hit or a miss. (The cache was once one per core; the
// results are held to linear search by the differential test.)
func TestPerCoreCacheHits(t *testing.T) {
	set := testSet(t, 128, 1)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dp, err := Attach(eng, Config{Cores: 2, CacheEntries: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ps := testPackets(set, 512, 7)
	out := make([]engine.Result, len(ps))
	dp.ClassifyBatch(ps, out)
	dp.ClassifyBatch(ps, out) // second pass: every flow repeats
	st := dp.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("no cache hits after a repeated trace (misses=%d)", st.CacheMisses)
	}
	if st.CacheHits+st.CacheMisses != uint64(2*len(ps)) {
		t.Fatalf("cache accounting: hits %d + misses %d != packets %d", st.CacheHits, st.CacheMisses, 2*len(ps))
	}
}

// TestPerCoreCacheSurvivesCompaction: a compaction republishes the same rule
// list, so the private cache stays warm across it; an Insert empties it.
func TestPerCoreCacheSurvivesCompaction(t *testing.T) {
	set := testSet(t, 200, 1)
	eng, err := engine.NewEngine("hicuts", set, engine.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dp, err := Attach(eng, Config{Cores: 2, CacheEntries: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	ps := testPackets(set, 256, 7)
	out := make([]engine.Result, len(ps))
	// pass returns the misses one more run of the trace costs.
	pass := func() uint64 {
		before := dp.Stats().CacheMisses
		dp.ClassifyBatch(ps, out)
		return dp.Stats().CacheMisses - before
	}
	if _, err := eng.Insert(0, set.Rule(3)); err != nil {
		t.Fatal(err)
	}
	cold, warm := pass(), pass()
	if cold == 0 || warm*8 > cold {
		t.Fatalf("cold pass missed %d, warm pass %d: the trace does not warm the cache", cold, warm)
	}
	// SaveArtifact folds the pending insert in by a synchronous compaction.
	if err := eng.SaveArtifact(filepath.Join(t.TempDir(), "a.ncaf")); err != nil {
		t.Fatal(err)
	}
	if st := eng.UpdaterStats(); st.Compactions != 1 {
		t.Fatalf("%d compactions, want 1", st.Compactions)
	}
	if m := pass(); m > warm {
		t.Errorf("a pass after compaction missed %d, a warm pass %d", m, warm)
	}
	if _, err := eng.Insert(0, set.Rule(4)); err != nil {
		t.Fatal(err)
	}
	if m := pass(); m != cold {
		t.Errorf("a pass after an Insert missed %d, a cold pass %d", m, cold)
	}
}
