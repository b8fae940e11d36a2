package engine

import (
	"path/filepath"
	"testing"
	"time"

	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
)

// newBuildGate returns a gate for the racing test backend's builder.
func newBuildGate() *buildGate {
	return &buildGate{entered: make(chan struct{}), release: make(chan struct{})}
}

// awaitBuild waits for a build to park on g.
func awaitBuild(t *testing.T, g *buildGate, what string) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no build parked", what)
	}
}

// awaitCompactions polls until eng has completed n compactions. The poll
// reads an atomic, not UpdaterStats: taking the writer lock would order
// whatever the caller did before it ahead of the compaction and so hide a
// race with it from the race detector.
func awaitCompactions(t *testing.T, eng *Engine, n uint64) UpdaterStats {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); eng.compactions.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 10 s: %d compactions, want %d", eng.compactions.Load(), n)
		}
	}
	return eng.UpdaterStats()
}

// checkLinear holds every answer of eng over trace to linear search over ref.
func checkLinear(t *testing.T, eng *Engine, ref *rule.Set, trace []rule.Packet, when string) {
	t.Helper()
	out := make([]Result, len(trace))
	eng.ClassifyBatch(trace, out)
	for i, p := range trace {
		want, wok := ref.Match(p)
		if got, ok := eng.Classify(p); ok != wok || got != want {
			t.Fatalf("%s: packet %d: Classify (%v, %v), linear search (%v, %v)", when, i, got, ok, want, wok)
		}
		if out[i].OK != wok || out[i].Rule != want {
			t.Fatalf("%s: packet %d: ClassifyBatch (%v, %v), linear search (%v, %v)", when, i, out[i].Rule, out[i].OK, want, wok)
		}
	}
}

// TestCompactRebaseRestartsAgeClock is the regression test for the stale
// age clock: when a compaction rebases updates that arrived mid-rebuild,
// the rebased overlay's dirty timestamp must restart at the compaction, not
// keep the pre-compaction value. Keeping it made CompactMaxAge see the
// just-rebased overlay as already past its age budget and fire a spurious
// back-to-back rebuild after every compaction under steady update load.
func TestCompactRebaseRestartsAgeClock(t *testing.T) {
	set := overlayTestSet(t, 100)
	eng, err := NewEngine("racing-test-backend", set, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// One pending update, with its dirty timestamp forced far into the past
	// (as if the overlay had been waiting out a long CompactMaxAge).
	if _, err := eng.Insert(0, set.Rule(1)); err != nil {
		t.Fatal(err)
	}
	ancient := time.Now().Add(-time.Hour).UnixNano()
	eng.overlayDirty.Store(ancient)

	// Compact with the rebuild parked, and land a second update inside the
	// window so the final swap must take the rebase branch.
	gate := newBuildGate()
	racingBuild.Store(gate)
	done := make(chan struct{})
	go func() { eng.compactOnce(); close(done) }()
	<-gate.entered
	racingBuild.Store(nil)
	if _, err := eng.Insert(1, set.Rule(2)); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	<-done

	st := eng.UpdaterStats()
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	if st.OverlayRules != 1 {
		t.Fatalf("OverlayRules = %d, want the mid-rebuild insert rebased onto the new base", st.OverlayRules)
	}
	dirty := eng.overlayDirty.Load()
	if dirty == 0 {
		t.Fatal("overlayDirty = 0 after a rebase that carried an update forward")
	}
	if dirty == ancient {
		t.Fatal("rebase kept the pre-compaction dirty timestamp; CompactMaxAge would fire a spurious back-to-back rebuild")
	}
	if age := time.Since(time.Unix(0, dirty)); age > time.Minute {
		t.Fatalf("rebased overlay's age = %v, want restarted at the compaction", age)
	}
}

// TestCompactionRetriggersAfterParkedBuild: the update that brings the
// overlay to the threshold starts a compaction; updates that land while its
// build is parked start none, and when it finishes with the rebased
// overlay still past the threshold it starts the next one itself, with no
// further update. A Close issued while that build is parked returns only
// once the build is released. Answers equal linear search throughout.
func TestCompactionRetriggersAfterParkedBuild(t *testing.T) {
	set := overlayTestSet(t, 500)
	trace := allocTestPackets(set, 2000)
	eng, err := NewEngine("racing-test-backend", set, Options{CompactThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	gates := []*buildGate{newBuildGate(), newBuildGate()}
	released := 0
	release := func() { close(gates[released].release); released++ }
	defer func() {
		racingBuild.Store(nil)
		for released < len(gates) {
			release()
		}
		eng.Close()
	}()
	ref := set.Clone()
	insert := func(k int) {
		t.Helper()
		pos, r := (k*37)%(ref.Len()+1), set.Rule(k*11%set.Len())
		res, err := eng.Insert(pos, r)
		if err != nil {
			t.Fatal(err)
		}
		r.ID = res.ID
		ref.Insert(pos, r)
	}
	remove := func(i int) {
		t.Helper()
		if _, err := eng.Delete(ref.Rule(i).ID); err != nil {
			t.Fatal(err)
		}
		ref.Remove(i)
	}

	racingBuild.Store(gates[0])
	for k := 0; k < 4; k++ {
		insert(k)
	}
	awaitBuild(t, gates[0], "the update reaching the threshold")
	checkLinear(t, eng, ref, trace, "first build parked")
	for k := 4; k < 7; k++ {
		insert(k)
	}
	remove(100)
	remove(200)
	if st := eng.UpdaterStats(); !st.Compacting || st.Compactions != 0 || st.OverlayRules+st.Tombstones != 9 {
		t.Fatalf("first build parked: %+v, want it running and 9 updates pending", st)
	}
	checkLinear(t, eng, ref, trace, "updates beside the first build")

	racingBuild.Store(gates[1])
	release()
	awaitBuild(t, gates[1], "the first compaction's end, 5 updates rebased")
	racingBuild.Store(nil)
	if st := eng.UpdaterStats(); st.Compactions != 1 || st.OverlayRules+st.Tombstones != 5 {
		t.Fatalf("second build parked: %+v, want 1 compaction and 5 updates pending", st)
	}
	checkLinear(t, eng, ref, trace, "second build parked")

	closed := make(chan struct{})
	go func() { eng.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a compaction's build was parked")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the build was released")
	}
	if st := eng.UpdaterStats(); st.Compactions != 2 || st.OverlayRules+st.Tombstones >= 4 {
		t.Fatalf("after Close: %+v, want 2 compactions and fewer than 4 updates pending", st)
	}
	checkLinear(t, eng, ref, trace, "after Close")
}

// TestCloseStopsRetrigger: a compaction whose build is parked when Close
// begins finishes, and even with its rebased overlay still past the
// threshold it starts no next one: Close returns after exactly one
// compaction, with nothing running or armed.
func TestCloseStopsRetrigger(t *testing.T) {
	set := overlayTestSet(t, 300)
	eng, err := NewEngine("racing-test-backend", set, Options{CompactThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := newBuildGate()
	racingBuild.Store(gate)
	defer racingBuild.Store(nil)
	for k := 0; k < 4; k++ {
		if _, err := eng.Insert(k, set.Rule(k)); err != nil {
			t.Fatal(err)
		}
	}
	awaitBuild(t, gate, "the update reaching the threshold")
	racingBuild.Store(nil)
	for k := 4; k < 9; k++ {
		if _, err := eng.Insert(k, set.Rule(k)); err != nil {
			t.Fatal(err)
		}
	}

	closed := make(chan struct{})
	go func() { eng.Close(); close(closed) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		eng.mu.Lock()
		c := eng.closed
		eng.mu.Unlock()
		if c {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close did not mark the engine closed within 10 s")
		}
	}
	close(gate.release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the build was released")
	}
	st := eng.UpdaterStats()
	if st.Compactions != 1 || st.OverlayRules != 5 {
		t.Fatalf("after Close: %+v, want 1 compaction and the 5 rebased inserts pending", st)
	}
	if compactionArmed(eng) {
		t.Fatal("a compaction ending after Close started the next one or armed a timer")
	}
}

// TestCompactMaxAgeFoldsQuietOverlay: with the size trigger off, one update
// and nothing after it is folded once it is CompactMaxAge old.
func TestCompactMaxAgeFoldsQuietOverlay(t *testing.T) {
	set := overlayTestSet(t, 300)
	trace := allocTestPackets(set, 1000)
	eng, err := NewEngine("hicuts", set, Options{CompactThreshold: -1, CompactMaxAge: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref := set.Clone()
	r := set.Rule(5)
	res, err := eng.Insert(10, r)
	if err != nil {
		t.Fatal(err)
	}
	r.ID = res.ID
	ref.Insert(10, r)
	if st := awaitCompactions(t, eng, 1); st.OverlayRules+st.Tombstones != 0 {
		t.Fatalf("after the age compaction: %+v, want nothing pending", st)
	}
	checkLinear(t, eng, ref, trace, "after the age compaction")
}

// TestReplayPastThresholdCompactsWithTelemetry: a journal replay that
// leaves the overlay past the threshold starts a compaction during
// construction, and that compaction publishes through telemetry, which
// must be wired before it starts (under -race, wiring it after races the
// compaction). The engine comes up, folds the replay once and records
// exactly one compaction sample.
func TestReplayPastThresholdCompactsWithTelemetry(t *testing.T) {
	set := overlayTestSet(t, 200)
	journal := filepath.Join(t.TempDir(), "replay.journal")
	first, err := NewEngine("linear", set, Options{JournalPath: journal, JournalNoSync: true, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		if _, err := first.Insert(k*7, set.Rule(k)); err != nil {
			t.Fatal(err)
		}
	}
	want := first.Rules()
	first.Close()

	tel := telemetry.New(telemetry.Config{})
	eng, err := NewEngine("linear", set, Options{JournalPath: journal, JournalNoSync: true, CompactThreshold: 8, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	awaitCompactions(t, eng, 1)
	eng.Close()
	if st := eng.UpdaterStats(); st.Compactions != 1 || st.OverlayRules+st.Tombstones != 0 {
		t.Fatalf("after the replay: %+v, want 1 compaction and nothing pending", st)
	}
	if n := tel.Compaction.Snapshot().Count(); n != 1 {
		t.Fatalf("telemetry recorded %d compactions, want 1", n)
	}
	checkLinear(t, eng, want, allocTestPackets(set, 1000), "after the replay")
}
