package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"neurocuts/internal/rule"
)

// The blocking test backend parks inside its build while armed, so a test
// can deterministically land updates in the middle of a background
// compaction's rebuild window (the rebase branch of compactOnce).
var (
	blockBuildArm     atomic.Bool
	blockBuildEntered = make(chan struct{}, 4)
	blockBuildRelease = make(chan struct{})
)

func init() {
	Register("blocking-test-backend", "Blocking", func(set *rule.Set, opts Options) (Classifier, error) {
		if blockBuildArm.Load() {
			blockBuildEntered <- struct{}{}
			<-blockBuildRelease
		}
		return New("linear", set)
	})
}

// TestCompactRebaseRestartsAgeClock is the regression test for the stale
// age clock: when a compaction rebases updates that arrived mid-rebuild,
// the rebased overlay's dirty timestamp must restart at the compaction, not
// keep the pre-compaction value. Keeping it made CompactMaxAge see the
// just-rebased overlay as already past its age budget and fire a spurious
// back-to-back rebuild after every compaction under steady update load.
func TestCompactRebaseRestartsAgeClock(t *testing.T) {
	set := overlayTestSet(t, 100)
	eng, err := NewEngine("blocking-test-backend", set, Options{Shards: 1, CompactThreshold: -1})
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
	blockBuildArm.Store(true)
	done := make(chan struct{})
	go func() { eng.compactOnce(); close(done) }()
	<-blockBuildEntered
	if _, err := eng.Insert(1, set.Rule(2)); err != nil {
		t.Fatal(err)
	}
	blockBuildArm.Store(false)
	close(blockBuildRelease)
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
