package dataplane

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
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
// traverse real rules and the flow caches see recurring tuples.
func testPackets(set *rule.Set, n int, seed int64) []rule.Packet {
	entries := classbench.GenerateTrace(set, n, seed)
	ps := make([]rule.Packet, len(entries))
	for i, e := range entries {
		ps[i] = e.Key
	}
	return ps
}

// waitFolded waits for the engine's compactor to have folded every pending
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

// TestDifferentialAgainstWorkerPool is the dataplane's ground-truth test:
// the same engine serves the same packets through both architectures — the
// worker-pool ClassifyBatch and the demux/ring/loop path — interleaved
// with live rule updates, across several backends. Every result must be
// identical: the dataplane is a serving architecture, not a semantics
// change. Both states of the write path are crossed: online=true serves
// every update from the overlay, online=false has the compactor fold each
// update into a rebuilt base before the next round.
func TestDifferentialAgainstWorkerPool(t *testing.T) {
	const packetsPerRound = 3000
	const rounds = 4 // 12k packets total, with updates between rounds
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

				ps := testPackets(set, packetsPerRound, 11)
				got := make([]engine.Result, packetsPerRound)
				want := make([]engine.Result, packetsPerRound)
				for round := 0; round < rounds; round++ {
					dp.ClassifyBatch(ps, got)
					eng.ClassifyBatch(ps, want)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("round %d packet %d: dataplane %+v, worker pool %+v", round, i, got[i], want[i])
						}
					}
					// Mutate the rule set between rounds: a top-priority rule
					// matching everything on round 0 and 2, removed on 1 and 3.
					if round%2 == 0 {
						if _, err := eng.Insert(0, rule.NewWildcardRule(-1)); err != nil {
							t.Fatal(err)
						}
					} else {
						live := eng.Rules().Rules()
						if _, err := eng.Delete(live[0].ID); err != nil {
							t.Fatal(err)
						}
					}
					if !online {
						waitFolded(t, eng, uint64(round+1))
					}
				}
			})
		}
	}
}

// TestEpochOrdering pins the update guarantee: a lookup submitted after
// Insert (or Delete) returned must observe the new rule generation — the
// epoch message is queued behind nothing and ahead of the lookup in every
// ring. Run many times so a lost or reordered epoch would be caught.
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

	p := testPackets(set, 1, 9)[0]
	for i := 0; i < 50; i++ {
		// A top-priority wildcard matches every packet, including p.
		res, err := eng.Insert(0, rule.NewWildcardRule(-1))
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := dp.Classify(p); !ok || r.ID != res.ID {
			t.Fatalf("iteration %d: lookup after Insert returned rule %d (ok=%v), want the just-inserted %d", i, r.ID, ok, res.ID)
		}
		if _, err := eng.Delete(res.ID); err != nil {
			t.Fatal(err)
		}
		if r, ok := dp.Classify(p); ok && r.ID == res.ID {
			t.Fatalf("iteration %d: lookup after Delete still matched the deleted rule %d", i, res.ID)
		}
	}
	if st := dp.Stats(); st.PerCore[coreOf(p, 4)].Epochs == 0 {
		t.Fatal("the looked-up packet's loop observed no epochs")
	}
}

// TestZeroAllocHotPath asserts the steady-state submit path allocates
// nothing: pooled scratch, by-value ring items, completion vectors embedded
// in the scratch. Engine caches are off and the per-core caches on — the
// exact opt-in dataplane configuration.
//
// Race builds are excluded: sync.Pool deliberately drops 25% of Puts on the
// floor under the race detector (sync/pool.go, "Randomly drop x on floor"),
// so the scratch pool re-runs New and the measurement reports the race
// runtime's sabotage, not a hot-path allocation. CI runs this test in a
// non-race pass alongside the bench gate.
func TestZeroAllocHotPath(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally drops Puts under -race; alloc gate runs in the non-race CI pass")
	}
	set := testSet(t, 128, 1)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dp, err := Attach(eng, Config{Cores: 2, CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ps := testPackets(set, 256, 7)
	out := make([]engine.Result, len(ps))
	dp.ClassifyBatch(ps, out) // warm the scratch pool

	if allocs := testing.AllocsPerRun(100, func() {
		dp.ClassifyBatch(ps, out)
	}); allocs != 0 {
		t.Errorf("ClassifyBatch allocates %.1f allocs/op, want 0", allocs)
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		dp.Classify(ps[i%len(ps)])
		i++
	}); allocs != 0 {
		t.Errorf("Classify allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestZeroAllocHotPathTelemetry re-pins the steady-state submit path with
// full telemetry enabled — per-span histogram samples on every core loop
// and the flight recorder capturing every span (threshold 0). Same race
// exclusion as TestZeroAllocHotPath (the scratch pool is sync.Pool).
func TestZeroAllocHotPathTelemetry(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally drops Puts under -race; alloc gate runs in the non-race CI pass")
	}
	set := testSet(t, 128, 1)
	tel := telemetry.New(telemetry.Config{})
	tel.SetSlowThreshold(0)
	eng, err := engine.NewEngine("linear", set, engine.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dp, err := Attach(eng, Config{Cores: 2, CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ps := testPackets(set, 256, 7)
	out := make([]engine.Result, len(ps))
	dp.ClassifyBatch(ps, out) // warm the scratch pool

	if allocs := testing.AllocsPerRun(100, func() {
		dp.ClassifyBatch(ps, out)
	}); allocs != 0 {
		t.Errorf("telemetry-enabled ClassifyBatch allocates %.1f allocs/op, want 0", allocs)
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		dp.Classify(ps[i%len(ps)])
		i++
	}); allocs != 0 {
		t.Errorf("telemetry-enabled Classify allocates %.1f allocs/op, want 0", allocs)
	}
	if tel.DataplaneBatch.Snapshot().Count() == 0 {
		t.Error("telemetry recorded no dataplane span samples")
	}
	if tel.Slow.Captured() == 0 {
		t.Error("flight recorder captured nothing at threshold 0")
	}
}

// TestStatsSurfacesParkWakeRing drives the dataplane through an
// idle-park-wake cycle and asserts the new per-core gauges surface through
// Stats(): park/wake transition counts, the ring-occupancy high watermark,
// the flow-cache hit ratio, and (once the rings drain) zero epoch lag.
func TestStatsSurfacesParkWakeRing(t *testing.T) {
	set := testSet(t, 128, 1)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dp, err := Attach(eng, Config{Cores: 2, CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ps := testPackets(set, 512, 7)
	out := make([]engine.Result, len(ps))
	dp.ClassifyBatch(ps, out)

	// The loops drain their rings and, after the spin budget, park. Wait
	// for every core to record at least one park transition.
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked := 0
		for _, cs := range dp.Stats().PerCore {
			if cs.Parks > 0 {
				parked++
			}
		}
		if parked == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loops never parked: %+v", dp.Stats().PerCore)
		}
		time.Sleep(time.Millisecond)
	}

	// Submitting into a parked loop forces the wake-token path. Repeats of
	// the same trace also exercise the per-core flow caches.
	dp.ClassifyBatch(ps, out)
	dp.ClassifyBatch(ps, out)

	var woke, hw int
	for _, cs := range dp.Stats().PerCore {
		if cs.Wakes > 0 {
			woke++
		}
		if cs.RingHighWatermark > hw {
			hw = cs.RingHighWatermark
		}
		if cs.CacheHits+cs.CacheMisses > 0 && (cs.HitRatio < 0 || cs.HitRatio > 1) {
			t.Errorf("core %d: hit ratio %v out of [0,1]", cs.Core, cs.HitRatio)
		}
	}
	if woke == 0 {
		t.Errorf("no core recorded a wake after submitting into parked loops: %+v", dp.Stats().PerCore)
	}
	if hw < 1 {
		t.Errorf("ring high watermark never reached 1: %+v", dp.Stats().PerCore)
	}

	// With no traffic in flight and no pending updates the pinned views
	// must converge to the engine head.
	deadline = time.Now().Add(5 * time.Second)
	for {
		lag := uint64(0)
		for _, cs := range dp.Stats().PerCore {
			lag += cs.EpochLag
		}
		if lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch lag never drained: %+v", dp.Stats().PerCore)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPerCoreCacheHits checks the per-core caches actually serve repeats:
// a recurring trace must produce hits, and the hit results must stay
// correct (covered by the differential test; here we pin the counters).
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
		t.Fatalf("no per-core cache hits after a repeated trace (misses=%d)", st.CacheMisses)
	}
	if st.CacheHits+st.CacheMisses != st.Packets {
		t.Fatalf("cache accounting: hits %d + misses %d != packets %d", st.CacheHits, st.CacheMisses, st.Packets)
	}
}

// TestPerCoreCacheSurvivesCompaction: the epoch a compaction publishes
// carries the same rule list, so the loops re-pin their Views and keep their
// caches; the epoch of an Insert empties them.
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
		t.Fatalf("cold pass missed %d, warm pass %d: the trace does not warm the caches", cold, warm)
	}
	// SaveArtifact folds the pending insert in by a synchronous compaction.
	if err := dp.SaveArtifact(filepath.Join(t.TempDir(), "a.ncaf")); err != nil {
		t.Fatal(err)
	}
	if st := eng.UpdaterStats(); st.Compactions != 1 {
		t.Fatalf("%d compactions, want 1", st.Compactions)
	}
	if m := pass(); m > warm {
		t.Errorf("a pass after compaction missed %d, a warm pass %d", m, warm)
	}
	if st := dp.Stats(); st.PerCore[0].Epochs != 2 || st.PerCore[0].EpochLag != 0 {
		t.Errorf("core 0 saw %d epochs (lag %d), want the insert's and the compaction's", st.PerCore[0].Epochs, st.PerCore[0].EpochLag)
	}
	if _, err := eng.Insert(0, set.Rule(4)); err != nil {
		t.Fatal(err)
	}
	if m := pass(); m != cold {
		t.Errorf("a pass after an Insert missed %d, a cold pass %d", m, cold)
	}
}

// TestCloseDrainsInFlight is the shutdown-ordering regression test: close
// the ENGINE (not the dataplane) while submitters are mid-flight. The
// dataplane's closer runs first, loops drain their rings against a fully
// live engine, every accepted batch completes with correct results, and
// late submissions fall back to inline classification instead of touching
// the dead worker pool.
func TestCloseDrainsInFlight(t *testing.T) {
	set := testSet(t, 200, 3)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Attach(eng, Config{Cores: 4, CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}

	ps := testPackets(set, 512, 13)
	want := make([]engine.Result, len(ps))
	eng.ClassifyBatch(ps, want)

	const submitters = 4
	var wg sync.WaitGroup
	var batches atomic.Int64
	stop := make(chan struct{})
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]engine.Result, len(ps))
			for {
				select {
				case <-stop:
					return
				default:
				}
				dp.ClassifyBatch(ps, out)
				batches.Add(1)
				for i := range out {
					if out[i] != want[i] {
						t.Errorf("in-flight batch corrupted at packet %d: %+v want %+v", i, out[i], want[i])
						return
					}
				}
			}
		}()
	}
	// Let the submitters get going, then pull the rug: engine Close while
	// batches are in flight.
	for batches.Load() < 8 {
		runtime.Gosched()
	}
	eng.Close()
	close(stop)
	wg.Wait()

	// After close, lookups still answer (inline fallback against the last
	// snapshot) rather than hanging or panicking.
	out := make([]engine.Result, len(ps))
	dp.ClassifyBatch(ps, out)
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("post-close fallback wrong at packet %d: %+v want %+v", i, out[i], want[i])
		}
	}
	if _, ok := dp.Classify(ps[0]); ok != want[0].OK {
		t.Fatal("post-close single-packet fallback disagrees")
	}
	dp.Close() // idempotent: already closed via the engine closer
}

// TestAttachDefaultsAndLimits pins Attach's configuration handling.
func TestAttachDefaultsAndLimits(t *testing.T) {
	set := testSet(t, 64, 1)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := Attach(eng, Config{Cores: maxCores + 1}); err == nil {
		t.Fatal("Attach accepted an absurd core count")
	}
	dp, err := Attach(eng, Config{}) // all defaults
	if err != nil {
		t.Fatal(err)
	}
	if dp.Cores() < 1 {
		t.Fatalf("defaulted cores = %d", dp.Cores())
	}
	if dp.Engine() != eng {
		t.Fatal("Engine() does not return the fronted engine")
	}
	if st := dp.Stats(); st.RingCapacity != defaultRingSize {
		t.Fatalf("default ring capacity = %d, want %d", st.RingCapacity, defaultRingSize)
	}
}
