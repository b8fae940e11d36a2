package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
	"neurocuts/internal/updater"
)

// overlayTestSet mirrors allocTestSet with a distinct seed so update tests
// and allocation tests stay independent.
func overlayTestSet(t testing.TB, size int) *rule.Set {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(fam, size, 11)
}

// poisonBuild replaces the engine's captured backend builder with one that
// always fails, so any code path that rebuilds from here on is caught.
func poisonBuild(e *Engine) {
	s := e.snap.Load()
	ns := *s
	ns.build = func(set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error) {
		return nil, Metrics{}, poisonedErr
	}
	e.snap.Store(&ns)
}

// TestOverlayUpdatesNeverBuild is the subsystem's acceptance test:
// single-rule Insert and Delete on a 10k-rule tree backend must complete without invoking the backend build path (the builder is
// poisoned after construction), and lookups must keep matching linear
// search over the merged list.
func TestOverlayUpdatesNeverBuild(t *testing.T) {
	set := overlayTestSet(t, 10000)
	eng, err := NewEngine("hicuts", set, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	poisonBuild(eng)

	r := set.Rule(3)
	res, err := eng.Insert(5000, r)
	if err != nil {
		t.Fatalf("overlay Insert invoked the build path: %v", err)
	}
	if _, err := eng.Delete(set.Rule(123).ID); err != nil {
		t.Fatalf("overlay Delete invoked the build path: %v", err)
	}
	if _, err := eng.Delete(res.ID); err != nil {
		t.Fatalf("overlay Delete of overlay rule: %v", err)
	}
	st := eng.UpdaterStats()
	if st.Tombstones != 1 {
		t.Fatalf("stats %+v: want 1 tombstone", st)
	}

	merged := eng.Rules()
	mismatch := 0
	for _, e := range classbench.GenerateTrace(merged, 3000, 13) {
		want := merged.MatchIndex(e.Key)
		got, ok := eng.Classify(e.Key)
		if (want < 0) != !ok || (ok && got.Priority != want) {
			mismatch++
		}
	}
	if mismatch > 0 {
		t.Fatalf("%d lookups diverge from linear search after overlay updates", mismatch)
	}
}

// countedBuilds counts calls to the counting test backend's tree builder,
// which otherwise builds a HiCuts tree.
var countedBuilds atomic.Int64

func init() {
	register("counting-test-backend", "Counting", func(set *rule.Set, opts Options) ([]*tree.Tree, error) {
		countedBuilds.Add(1)
		return BuildTrees("hicuts", set, opts)
	})
}

// compactionArmed reports whether a compaction is running or the engine's
// age timer is armed: whether the engine runs, or will start, a goroutine.
func compactionArmed(e *Engine) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compacting.Load() || e.ageTimer != nil
}

// TestOneWritePath: an engine built with no update option takes every
// Insert and Delete through the overlay. The builder runs once, at
// construction, and never on the update path; every intermediate snapshot
// answers a trace exactly as linear search over its own rule list; the
// overlay base does not exist until the first update asks for it; and no
// compaction runs or is armed on a read-only engine, on one under its
// threshold with no CompactMaxAge, or after Close — where the update fails
// with ErrClosed.
func TestOneWritePath(t *testing.T) {
	set := overlayTestSet(t, 300)
	trace := allocTestPackets(set, 2000)
	for _, opts := range []Options{{}, {CompactThreshold: -1}} {
		built := countedBuilds.Load()
		eng, err := NewEngine("counting-test-backend", set, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := countedBuilds.Load() - built; got != 1 {
			t.Fatalf("CompactThreshold %d: construction called the builder %d times, want 1", opts.CompactThreshold, got)
		}
		eng.Classify(trace[0])
		if eng.snap.Load().base != nil || compactionArmed(eng) {
			t.Fatalf("CompactThreshold %d: a read-only engine holds an overlay base or a compaction", opts.CompactThreshold)
		}
		var ids []int
		for i := 0; i < 64; i++ {
			if i%2 == 0 {
				res, err := eng.Insert(i*3, set.Rule(i))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, res.ID)
			} else {
				// Alternately a base rule and the rule inserted last.
				id := set.Rule(i * 2).ID
				if i%4 == 1 {
					id = ids[len(ids)-1]
				}
				if _, err := eng.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			merged := eng.Rules()
			for _, p := range trace {
				want, wok := merged.Match(p)
				if got, ok := eng.Classify(p); ok != wok || got != want {
					t.Fatalf("CompactThreshold %d: update %d, packet %v: engine (%v, %v), linear search (%v, %v)", opts.CompactThreshold, i, p, got, ok, want, wok)
				}
			}
		}
		if got := countedBuilds.Load() - built; got != 1 {
			t.Fatalf("CompactThreshold %d: 64 updates called the builder %d times", opts.CompactThreshold, got-1)
		}
		if st := eng.UpdaterStats(); st.Compactions != 0 || st.OverlayRules+st.Tombstones == 0 {
			t.Fatalf("CompactThreshold %d: stats %+v: want a pending overlay and no compaction", opts.CompactThreshold, st)
		}
		if compactionArmed(eng) {
			t.Fatalf("CompactThreshold %d: an engine under its threshold with no CompactMaxAge runs or arms a compaction", opts.CompactThreshold)
		}
		eng.Close()
	}

	// After Close: with an age trigger and no threshold, the first update
	// would arm the age timer on an open engine, so a timer here means the
	// closed engine armed one.
	eng, err := NewEngine("counting-test-backend", set, Options{CompactThreshold: -1, CompactMaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := eng.Insert(0, set.Rule(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: err = %v, want ErrClosed", err)
	}
	if compactionArmed(eng) {
		t.Fatal("an update after Close started a compaction or armed its timer")
	}
}

// TestClosedEngineRefusesUpdates: after Close, Insert, Delete and
// LoadArtifact fail with ErrClosed and publish nothing — the version stays
// put and the journal gains no record — so no update is acknowledged that a
// restart would lose.
func TestClosedEngineRefusesUpdates(t *testing.T) {
	set := overlayTestSet(t, 200)
	dir := t.TempDir()
	artifact := filepath.Join(dir, "a.ncaf")
	src, err := NewEngine("hicuts", set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	src.Close()

	jpath := filepath.Join(dir, "e.journal")
	eng, err := NewEngine("hicuts", set, Options{CompactThreshold: -1, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert(0, set.Rule(1)); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	version := eng.Version()
	journal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	for op, update := range map[string]func() (UpdateResult, error){
		"Insert":       func() (UpdateResult, error) { return eng.Insert(0, set.Rule(2)) },
		"Delete":       func() (UpdateResult, error) { return eng.Delete(set.Rule(3).ID) },
		"LoadArtifact": func() (UpdateResult, error) { return eng.LoadArtifact(artifact) },
	} {
		if _, err := update(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", op, err)
		}
		if got := eng.Version(); got != version {
			t.Errorf("%s after Close published version %d, want %d unchanged", op, got, version)
		}
		if got, err := os.ReadFile(jpath); err != nil || !bytes.Equal(got, journal) {
			t.Errorf("%s after Close changed the journal (%d -> %d bytes, err %v)", op, len(journal), len(got), err)
		}
	}
}

// TestOverlayHoldsWideRangeRule: a rule with non-prefix ranges in both
// addresses and both ports expands into far more than 4 096 prefix tuples,
// which the Tuple Space Search overlay refused — the insert then silently
// took a full rebuild under the writer lock. The sorted overlay holds any
// rule: the insert must land in the overlay with the builder poisoned, and
// the rule must win exactly the packets linear search gives it.
func TestOverlayHoldsWideRangeRule(t *testing.T) {
	set := overlayTestSet(t, 10000)
	eng, err := NewEngine("hicuts", set, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	poisonBuild(eng)

	wide := rule.NewWildcardRule(0)
	wide.Ranges[rule.DimSrcIP] = rule.Range{Lo: 1, Hi: 0xFFFFFFFE}
	wide.Ranges[rule.DimDstIP] = rule.Range{Lo: 1, Hi: 0xFFFFFFFE}
	wide.Ranges[rule.DimSrcPort] = rule.Range{Lo: 1, Hi: 65534}
	wide.Ranges[rule.DimDstPort] = rule.Range{Lo: 1, Hi: 65534}
	res, err := eng.Insert(set.Len()/2, wide)
	if err != nil {
		t.Fatalf("Insert of a wide-range rule left the overlay path: %v", err)
	}
	if st := eng.UpdaterStats(); st.OverlayRules != 1 || st.Compactions != 0 {
		t.Fatalf("stats %+v: want the rule in the overlay and no compaction", st)
	}

	merged := eng.Rules()
	wins := 0
	for _, e := range classbench.GenerateTrace(merged, 3000, 17) {
		want := merged.MatchIndex(e.Key)
		got, ok := eng.Classify(e.Key)
		if (want < 0) != !ok || (ok && got.Priority != want) {
			t.Fatalf("packet %v: engine (prio %d, %v), linear search index %d", e.Key, got.Priority, ok, want)
		}
		if ok && got.ID == res.ID {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("the inserted rule never won a packet; the trace does not exercise it")
	}
}

// TestOverlayDifferential interleaves 1k updates with 12k ClassBench
// packets and checks every lookup against linear search over the engine's
// current merged rule list — for a compiled tree base and a linear base,
// with background compaction live (threshold 64) so both the fast path and
// the tombstoned-winner rescan are exercised across base generations.
func TestOverlayDifferential(t *testing.T) {
	for _, backend := range []string{"hicuts", "linear"} {
		t.Run(backend, func(t *testing.T) {
			set := overlayTestSet(t, 400)
			eng, err := NewEngine(backend, set, Options{CompactThreshold: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			rng := rand.New(rand.NewSource(42))
			trace := classbench.GenerateTrace(set, 12000, 17)
			var inserted []int
			updates := 0
			for i, e := range trace {
				if i%12 == 0 && updates < 1000 {
					if len(inserted) > 0 && rng.Intn(3) == 0 {
						k := rng.Intn(len(inserted))
						id := inserted[k]
						inserted = append(inserted[:k], inserted[k+1:]...)
						if _, err := eng.Delete(id); err != nil {
							t.Fatalf("update %d: delete %d: %v", updates, id, err)
						}
					} else {
						r := set.Rule(rng.Intn(set.Len()))
						res, err := eng.Insert(rng.Intn(eng.Rules().Len()+1), r)
						if err != nil {
							t.Fatalf("update %d: insert: %v", updates, err)
						}
						inserted = append(inserted, res.ID)
					}
					updates++
				}
				merged := eng.Rules()
				want := merged.MatchIndex(e.Key)
				got, ok := eng.Classify(e.Key)
				if (want < 0) != !ok {
					t.Fatalf("packet %d (%v): ok=%v want match=%v", i, e.Key, ok, want >= 0)
				}
				if ok && got.Priority != want {
					t.Fatalf("packet %d (%v): got priority %d, want %d", i, e.Key, got.Priority, want)
				}
			}
			if updates < 1000 {
				t.Fatalf("only %d updates applied", updates)
			}
		})
	}
}

// TestOverlayConcurrentReadersWritersCompactor hammers one engine with
// concurrent single and batch readers while a writer churns through the
// overlay and an aggressive compaction threshold keeps the background
// compaction busy. Run under -race (CI does) this is the subsystem's data
// race probe; functionally it asserts readers always see a coherent
// snapshot (every result matches that snapshot's own rule list).
func TestOverlayConcurrentReadersWritersCompactor(t *testing.T) {
	set := overlayTestSet(t, 300)
	eng, err := NewEngine("hicuts", set, Options{CompactThreshold: 8, CompactMaxAge: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	trace := classbench.GenerateTrace(set, 2000, 19)
	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	// Writer: 300 insert/delete pairs through the overlay.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300 && !stop.Load(); i++ {
			res, err := eng.Insert(i%(eng.Rules().Len()+1), set.Rule(i%set.Len()))
			if err != nil {
				errCh <- err
				return
			}
			if i%2 == 0 {
				if _, err := eng.Delete(res.ID); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()

	// Readers: single-packet lookups cross-checked against the snapshot's
	// own merged list.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < 4000 && !stop.Load(); i++ {
				p := keys[rng.Intn(len(keys))]
				got, ok := eng.Classify(p)
				// The snapshot may advance between loads, so the winner can
				// legitimately differ run to run — but a returned rule must
				// always actually match the packet.
				if ok && !got.Matches(p) {
					errCh <- fmt.Errorf("reader %d: returned rule %d does not match packet %v", seed, got.ID, p)
					return
				}
			}
		}(g)
	}

	// Batch reader, running on its own goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]Result, len(keys))
		for i := 0; i < 60 && !stop.Load(); i++ {
			eng.ClassifyBatch(keys, out)
			for k, r := range out {
				if r.OK && !r.Rule.Matches(keys[k]) {
					errCh <- fmt.Errorf("batch: rule %d does not match packet %v", r.Rule.ID, keys[k])
					return
				}
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Close waits for a compaction still in flight: on a loaded machine the
	// first one can outlast the writer.
	eng.Close()
	if eng.UpdaterStats().Compactions == 0 {
		t.Fatal("no compaction ran despite aggressive threshold")
	}
	// After the dust settles, the final snapshot must be exactly consistent.
	merged := eng.Rules()
	for _, p := range keys[:500] {
		want := merged.MatchIndex(p)
		got, ok := eng.Classify(p)
		if (want < 0) != !ok || (ok && got.Priority != want) {
			t.Fatalf("final state: packet %v got (%d,%v) want idx %d", p, got.Priority, ok, want)
		}
	}
}

// ruleWrappersZeroAlloc pins the two Rule-shaped entry points the updater
// keeps as wrappers over its position path, built the way the benchmark's
// updater layer builds them: an updater.NewBaseBatch base over eng's compiled
// classifier (built over set) and a View of eng's merged list. Its
// View.Classify and View.ClassifyBatch must match linear search and
// allocate nothing — no freelist has to be warm first.
func ruleWrappersZeroAlloc(t *testing.T, eng *Engine, set *rule.Set, ps []rule.Packet) {
	t.Helper()
	s := eng.snap.Load()
	cc := s.c
	idx, rules := make([]int32, len(ps)), cc.Rules()
	base, err := updater.NewBaseBatch(set, cc.Lookup, func(ps []rule.Packet, rs []rule.Rule, oks []bool) {
		cc.LookupBatch(ps, idx[:len(ps)])
		for i, ix := range idx[:len(ps)] {
			if oks[i] = ix >= 0; oks[i] {
				rs[i] = rules[ix]
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := updater.NewView(base, s.rules())
	if err != nil {
		t.Fatal(err)
	}
	rs, oks := make([]rule.Rule, len(ps)), make([]bool, len(ps))
	if allocs := testing.AllocsPerRun(50, func() { view.ClassifyBatch(ps, rs, oks) }); allocs != 0 {
		t.Errorf("%s: updater.View.ClassifyBatch over a NewBaseBatch base allocates %.1f allocs/op, want 0", s.backend, allocs)
	}
	for i, p := range ps {
		if want, ok := s.rules().Match(p); oks[i] != ok || rs[i] != want {
			t.Fatalf("%s: wrapper batch packet %d: (%v, %v), linear search (%v, %v)", s.backend, i, rs[i].ID, oks[i], want.ID, ok)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() { view.Classify(ps[i%len(ps)]); i++ }); allocs != 0 {
		t.Errorf("%s: updater.View.Classify over a NewBaseBatch base allocates %.1f allocs/op, want 0", s.backend, allocs)
	}
}

// TestOverlayZeroAllocLookups pins the merged lookup path, scalar and
// batched (256-packet batches), at zero heap allocations per op at the fill
// the benchmark's overlay averages between compactions (128 overlay rules +
// 128 tombstones), on a compiled tree base and on the fallback bases the CI
// alloc gate has always pinned — and, on the compiled bases, the updater's
// Rule-shaped wrappers.
func TestOverlayZeroAllocLookups(t *testing.T) {
	set := overlayTestSet(t, 1024)
	ps := allocTestPackets(set, 256)
	out := make([]Result, len(ps))
	for _, backend := range []string{"linear", "hicuts", "cutsplit"} {
		eng, err := NewEngine(backend, set, Options{CompactThreshold: -1})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for i := 0; i < 128; i++ {
			if _, err := eng.Insert(i*8, set.Rule(i)); err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			if _, err := eng.Delete(set.Rule(i*7 + 1).ID); err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
		}
		st := eng.UpdaterStats()
		if st.OverlayRules != 128 || st.Tombstones != 128 {
			t.Fatalf("%s: overlay=%d tombstones=%d, want 128/128", backend, st.OverlayRules, st.Tombstones)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			p := ps[i%len(ps)]
			i++
			eng.Classify(p)
		})
		if allocs != 0 {
			t.Errorf("%s: overlay Classify allocates %.1f allocs/op, want 0", backend, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { eng.ClassifyBatch(ps, out) }); allocs != 0 {
			t.Errorf("%s: overlay ClassifyBatch allocates %.1f allocs/op, want 0", backend, allocs)
		}
		if backend == "hicuts" || backend == "cutsplit" {
			ruleWrappersZeroAlloc(t, eng, set, ps)
		}
		eng.Close()
	}
}

// TestInsertPositionClamping: positions outside [0, len] clamp to the
// bounds.
func TestInsertPositionClamping(t *testing.T) {
	set := overlayTestSet(t, 40)
	eng, err := NewEngine("linear", set, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	w := rule.NewWildcardRule(0)
	res, err := eng.Insert(-5, w)
	if err != nil {
		t.Fatalf("Insert(-5): %v", err)
	}
	if got := eng.Rules().Rule(0).ID; got != res.ID {
		t.Fatalf("Insert(-5) landed at %d, want top", got)
	}
	res, err = eng.Insert(eng.Rules().Len()+100, w)
	if err != nil {
		t.Fatalf("Insert(len+100): %v", err)
	}
	if got := eng.Rules().Rule(eng.Rules().Len() - 1).ID; got != res.ID {
		t.Fatalf("Insert(len+100) landed at %d, want bottom", got)
	}
}

// TestDeleteMissingRule: deleting a nonexistent ID — and deleting the same
// ID twice — fails with ErrRuleNotFound and an error naming the ID.
func TestDeleteMissingRule(t *testing.T) {
	set := overlayTestSet(t, 30)
	eng, err := NewEngine("linear", set, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Delete(987654); !errors.Is(err, ErrRuleNotFound) || !strings.Contains(err.Error(), "987654") {
		t.Fatalf("Delete(987654) err = %v, want ErrRuleNotFound naming the ID", err)
	}
	id := set.Rule(7).ID
	if _, err := eng.Delete(id); err != nil {
		t.Fatalf("first delete: %v", err)
	}
	if _, err := eng.Delete(id); !errors.Is(err, ErrRuleNotFound) {
		t.Fatalf("double delete err = %v, want ErrRuleNotFound", err)
	}
	// The failed delete must not have bumped the version.
	v := eng.Version()
	if _, err := eng.Delete(987654); err == nil || eng.Version() != v {
		t.Fatal("failed delete changed version")
	}
}

// TestJournalCrashRecovery: updates acknowledged to a journaling engine
// survive an abrupt abandonment (no Close, no artifact rewrite) and replay
// at the next warm start, with post-recovery lookups matching linear search
// over the recovered merged list — including when a compaction happened
// between updates.
func TestJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "policy.ncaf")
	journal := JournalPathFor(artifact)

	set := overlayTestSet(t, 500)
	src, err := NewEngine("hicuts", set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	src.Close()

	engA, err := NewEngineFromArtifact(artifact, Options{JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var live []int
	for i := 0; i < 60; i++ {
		if len(live) > 5 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			if _, err := engA.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			res, err := engA.Insert(rng.Intn(engA.Rules().Len()+1), set.Rule(rng.Intn(set.Len())))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, res.ID)
		}
	}
	wantRules := append([]rule.Rule(nil), engA.Rules().Rules()...)
	// Crash: abandon engA without Close. (The journal file's writes are
	// already in the OS; only the in-memory state is lost.)

	engB, err := NewEngineFromArtifact(artifact, Options{JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer engB.Close()
	got := engB.Rules().Rules()
	if len(got) != len(wantRules) {
		t.Fatalf("recovered %d rules, want %d", len(got), len(wantRules))
	}
	for i := range wantRules {
		if got[i].ID != wantRules[i].ID || got[i].Ranges != wantRules[i].Ranges {
			t.Fatalf("recovered rule %d = id %d, want id %d", i, got[i].ID, wantRules[i].ID)
		}
	}
	merged := engB.Rules()
	for _, e := range classbench.GenerateTrace(merged, 3000, 23) {
		want := merged.MatchIndex(e.Key)
		r, ok := engB.Classify(e.Key)
		if (want < 0) != !ok || (ok && r.Priority != want) {
			t.Fatalf("post-recovery packet %v: got (%d,%v) want idx %d", e.Key, r.Priority, ok, want)
		}
	}
	// New updates keep appending to the recovered journal.
	if _, err := engB.Insert(0, set.Rule(0)); err != nil {
		t.Fatal(err)
	}
	if st := engB.UpdaterStats(); st.JournalRecords != 61 {
		t.Fatalf("journal records = %d, want 61 (60 replayed + 1 new)", st.JournalRecords)
	}
	engA.Close()
}

// TestJournalRecoveryAfterCompaction: compaction changes the base but not
// the journal's replay semantics — records still apply to the journal's
// starting list.
func TestJournalRecoveryAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "u.journal")
	set := overlayTestSet(t, 200)

	engA, err := NewEngine("hicuts", set, Options{JournalPath: journal, CompactThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if _, err := engA.Insert(i, set.Rule(i%set.Len())); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for engA.UpdaterStats().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if engA.UpdaterStats().Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	// A couple of post-compaction updates land in the new overlay.
	if _, err := engA.Insert(0, set.Rule(1)); err != nil {
		t.Fatal(err)
	}
	want := append([]rule.Rule(nil), engA.Rules().Rules()...)

	// Crash and recover onto a cold-built engine over the same generated
	// set: the journal's fingerprint matches the original base.
	engB, err := NewEngine("hicuts", overlayTestSet(t, 200), Options{JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer engB.Close()
	got := engB.Rules().Rules()
	if len(got) != len(want) {
		t.Fatalf("recovered %d rules, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("recovered rule %d id=%d want %d", i, got[i].ID, want[i].ID)
		}
	}
	engA.Close()
}

// TestSaveArtifactCompactsAndRotates: saving an artifact mid-churn folds
// the overlay in (the artifact embodies every acknowledged update) and
// rotates the journal, and a warm start from artifact+journal reproduces
// the live state.
func TestSaveArtifactCompactsAndRotates(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "p.ncaf")
	journal := JournalPathFor(artifact)
	set := overlayTestSet(t, 150)

	eng, err := NewEngine("hicuts", set, Options{JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 10; i++ {
		if _, err := eng.Insert(i*7, set.Rule(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.UpdaterStats(); st.OverlayRules != 10 {
		t.Fatalf("overlay=%d want 10", st.OverlayRules)
	}
	if err := eng.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	st := eng.UpdaterStats()
	if st.OverlayRules != 0 || st.JournalRecords != 0 {
		t.Fatalf("after save: overlay=%d journal=%d, want 0/0 (compacted + rotated)", st.OverlayRules, st.JournalRecords)
	}
	// Two post-checkpoint updates, then recover from artifact + journal.
	res, err := eng.Insert(0, set.Rule(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Delete(res.ID); err != nil {
		t.Fatal(err)
	}
	want := append([]rule.Rule(nil), eng.Rules().Rules()...)

	warm, err := NewEngineFromArtifact(artifact, Options{JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	got := warm.Rules().Rules()
	if len(got) != len(want) {
		t.Fatalf("recovered %d rules, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("rule %d: id %d want %d", i, got[i].ID, want[i].ID)
		}
	}
}

// TestOverlayUnregisteredBackendStillUpdates: an artifact-served engine
// whose backend is not registered accepts updates like any other — no
// update needs the build path.
func TestOverlayUnregisteredBackendStillUpdates(t *testing.T) {
	set := artifactTestSet(t, 120)
	path := saveTestArtifact(t, set, "no-such-backend-overlay", t.TempDir())
	eng, err := NewEngineFromArtifact(path, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Insert(0, rule.NewWildcardRule(0))
	if err != nil {
		t.Fatalf("insert on unregistered backend: %v", err)
	}
	if r, ok := eng.Classify(rule.Packet{Proto: 99}); !ok || r.ID != res.ID {
		t.Fatalf("inserted wildcard not winning: %v %v", r, ok)
	}
	if _, err := eng.Delete(res.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSideSaveDoesNotRotateJournal: saving a snapshot to a path that is
// neither the journal's co-located companion nor the engine's own source
// artifact must leave the journal untouched — the configured
// artifact+journal pair must stay able to reconstruct acknowledged updates
// after a crash.
func TestSideSaveDoesNotRotateJournal(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "main.ncaf")
	journal := JournalPathFor(artifact)
	set := overlayTestSet(t, 120)

	src, err := NewEngine("hicuts", set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	src.Close()

	eng, err := NewEngineFromArtifact(artifact, Options{JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Insert(0, set.Rule(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Side snapshot: journal must keep its 5 records.
	if err := eng.SaveArtifact(filepath.Join(dir, "backup.ncaf")); err != nil {
		t.Fatal(err)
	}
	if st := eng.UpdaterStats(); st.JournalRecords != 5 {
		t.Fatalf("side save rotated the journal: %d records, want 5", st.JournalRecords)
	}
	want := append([]rule.Rule(nil), eng.Rules().Rules()...)
	// Crash and recover from the ORIGINAL pair: all 5 updates replay.
	warm, err := NewEngineFromArtifact(artifact, Options{JournalPath: journal, CompactThreshold: -1})
	if err != nil {
		t.Fatalf("recovery after side save: %v", err)
	}
	defer warm.Close()
	if got := warm.Rules().Rules(); len(got) != len(want) {
		t.Fatalf("recovered %d rules, want %d", len(got), len(want))
	}
	// Checkpointing the engine's own source artifact DOES rotate.
	if err := eng.SaveArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	if st := eng.UpdaterStats(); st.JournalRecords != 0 {
		t.Fatalf("own-pair checkpoint did not rotate: %d records", st.JournalRecords)
	}
	eng.Close()
}
