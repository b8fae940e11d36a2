package engine

import (
	"fmt"
	"sync"
	"time"

	"neurocuts/internal/compiled"
	"neurocuts/internal/rule"
	"neurocuts/internal/updater"
)

// This file wires the delta-overlay update subsystem (internal/updater)
// into the Engine. It is the engine's only write path: no Insert or Delete
// rebuilds the backend. The update lands in a small sorted overlay of packed
// rules (inserts) or a tombstone set (deletes): the next immutable View is
// derived from the last one (View.Insert, View.Delete), at the cost of the
// overlay and a shift of the view's source index, and published through
// the usual RCU snapshot swap. An overlay snapshot holds no rule list: its
// view materializes the winners it answers, and the whole list only when
// something asks for it (rules: compaction, SaveArtifact, Engine.Rules), once
// per snapshot. A compaction goroutine, started by the triggering update
// (the one that brings the overlay to the threshold) or the CompactMaxAge
// timer, folds the overlay back into a rebuilt base off the critical path.
// A lookup pays the base lookup plus a scan of the overlay rules ranked at
// or above the base winner, so the compaction threshold bounds the overlay's
// cost. Every update is journaled (when a journal is configured) before its
// snapshot is published, so acknowledged updates survive a crash and replay
// at the next warm start.
//
// The overlay base (an ID index over the whole rule list) exists only once
// something needs it: the first update, or construction when a journal must
// be replayed. A table that is never updated pays for none of it, and an
// engine runs a goroutine only while it compacts.

// DefaultCompactThreshold is the pending-update count (overlay rules plus
// tombstones) at which background compaction kicks in when
// Options.CompactThreshold is 0.
const DefaultCompactThreshold = 256

// withView returns the snapshot serving view over s's base, with s's
// identity.
func (s *snapshot) withView(view *updater.View, version, rulesGen uint64) *snapshot {
	return &snapshot{c: s.c, m: s.m, set: s.set, view: view, merged: sync.OnceValue(view.Merged), version: version, rulesGen: rulesGen,
		backend: s.backend, binth: s.binth, build: s.build, base: s.base}
}

// overlayView returns the view the snapshot's next update derives from: its
// own, or its base with nothing pending. s must have a base.
func (s *snapshot) overlayView() *updater.View {
	if s.view != nil {
		return s.view
	}
	return s.base.View()
}

// newBase wraps compiled classifier c over set as an overlay base: merged
// views classify spans through its batch walk, and it lends the base its
// packed rule records, so tombstone rescans cost no second copy.
func newBase(c *compiled.Classifier, set *rule.Set) (*updater.Base, error) {
	return updater.NewBasePacked(set, c.LookupIndex, c.LookupBatch, c.Packed())
}

// initUpdater finishes engine construction for the write path: it fixes the
// compaction threshold and, when a journal is configured, derives the base
// and opens and replays the journal — replay needs them now. Without a
// journal the base waits for the first update (baseSnapLocked). A replay
// that leaves the overlay due for compaction starts one, so telemetry must
// already be wired. Called once from NewEngine / NewEngineFromArtifact.
func (e *Engine) initUpdater() error {
	e.compactThreshold = e.opts.CompactThreshold
	if e.compactThreshold == 0 {
		e.compactThreshold = DefaultCompactThreshold
	}
	if e.opts.JournalPath == "" {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, err := e.baseSnapLocked()
	if err != nil {
		return err
	}
	j, ops, err := updater.OpenJournal(e.opts.JournalPath, cur.journalMeta(), !e.opts.JournalNoSync)
	if err != nil {
		return err
	}
	e.journal = j
	if len(ops) > 0 {
		if err := e.replayJournal(ops); err != nil {
			j.Close()
			e.journal = nil
			return err
		}
	}
	return nil
}

// journalMeta describes s as the base a journal's records apply to.
func (s *snapshot) journalMeta() updater.JournalMeta {
	return updater.JournalMeta{
		Backend:     s.backend,
		BaseRules:   s.len(),
		BaseCRC:     updater.Fingerprint(s.rules()),
		CreatedUnix: time.Now().Unix(),
	}
}

// baseSnapLocked returns the current snapshot, first giving it an overlay
// base if it has none (a never-updated engine, or one whose LoadArtifact
// dropped it). Every update starts here, so a closed engine fails here with
// ErrClosed. The base changes no answer, so the snapshot is replaced in
// place under the same version. A rule list the overlay cannot anchor
// (non-canonical priorities, duplicate IDs) fails here, and the snapshot is
// returned as it was, for the caller's failure result. Caller holds e.mu.
func (e *Engine) baseSnapLocked() (*snapshot, error) {
	cur := e.snap.Load()
	if e.closed {
		return cur, ErrClosed
	}
	if cur.base != nil {
		return cur, nil
	}
	base, err := newBase(cur.c, cur.set)
	if err != nil {
		return cur, err
	}
	ns := *cur
	ns.base = base
	e.snap.Store(&ns)
	return &ns, nil
}

// replayJournal applies recovered journal records to the engine's starting
// rule list and publishes one merged view over them. One snapshot covers
// the whole replay; the version advances by the number of replayed updates
// so it matches what a non-crashed engine would report.
func (e *Engine) replayJournal(ops []updater.Op) error {
	cur := e.snap.Load()
	merged, maxID, err := updater.Replay(cur.rules(), ops)
	if err != nil {
		return err
	}
	view, err := updater.NewView(cur.base, merged)
	if err != nil {
		return fmt.Errorf("engine: journal replay: %w", err)
	}
	ns := cur.withView(view, cur.version+uint64(len(ops)), cur.rulesGen+1)
	e.snap.Store(ns)
	if maxID >= e.nextID {
		e.nextID = maxID + 1
	}
	e.afterOverlayPublish(ns)
	return nil
}

// applyOverlayLocked publishes one update through the overlay path: the
// caller derived the next view from cur's (View.Insert or View.Delete); this
// journals the op and swaps the snapshot. Any rule fits the overlay, so no
// update needs the backend's builder. Caller holds e.mu.
func (e *Engine) applyOverlayLocked(cur *snapshot, view *updater.View, op updater.Op) (UpdateResult, error) {
	ns := cur.withView(view, cur.version+1, cur.rulesGen+1)
	// Journal before publish: an update is acknowledged only once durable.
	if e.journal != nil {
		if err := e.journal.Append(op); err != nil {
			return cur.failed(), err
		}
	}
	e.publishSnap(ns)
	e.afterOverlayPublish(ns)
	return UpdateResult{ID: op.ID, Version: ns.version, Rules: view.Len()}, nil
}

// pending is the snapshot's count of updates not yet folded into its base:
// overlay rules plus tombstones.
func (s *snapshot) pending() int {
	if s.view == nil {
		return 0
	}
	return s.view.OverlayLen() + s.view.Tombstones()
}

// afterOverlayPublish maintains the compaction triggers after a snapshot
// swap: the age clock starts when the first pending update appears, and a
// compaction starts if one is due. Caller holds e.mu.
func (e *Engine) afterOverlayPublish(ns *snapshot) {
	if ns.pending() == 0 {
		e.overlayDirty.Store(0)
		return
	}
	if e.overlayDirty.Load() == 0 {
		e.overlayDirty.Store(time.Now().UnixNano())
	}
	e.compactIfDueLocked()
}

// compactFailureBackoff is the minimum pause between background compaction
// attempts after a failure.
const compactFailureBackoff = 2 * time.Second

// compactIfDueLocked starts a compaction goroutine when one is due — the
// overlay has reached the threshold, or its oldest update is CompactMaxAge
// old — and none is running. A closed engine starts nothing. An age
// trigger that is not due yet, or is held back by a failure's backoff,
// arms the age timer for when it will be. Caller holds e.mu.
func (e *Engine) compactIfDueLocked() {
	pending := e.snap.Load().pending()
	if e.closed || pending == 0 {
		return
	}
	now := time.Now()
	due := e.compactThreshold > 0 && pending >= e.compactThreshold
	var wait time.Duration // until the age trigger is due
	if age := e.opts.CompactMaxAge; age > 0 {
		wait = age - now.Sub(time.Unix(0, e.overlayDirty.Load()))
		due = due || wait <= 0
	}
	// Failure backoff: a merged list the backend cannot rebuild would
	// otherwise burn a core re-attempting a doomed O(ruleset) build on every
	// update.
	if at := e.lastCompactFailAt.Load(); at != 0 {
		if left := compactFailureBackoff - now.Sub(time.Unix(0, at)); left > 0 {
			due, wait = false, max(wait, left)
		}
	}
	switch {
	case due:
		if e.compacting.CompareAndSwap(false, true) {
			e.compactWG.Add(1)
			go func() {
				defer e.compactWG.Done()
				e.compactOnce()
				// Look again: a threshold crossed during the build is not lost.
				e.mu.Lock()
				defer e.mu.Unlock()
				e.compacting.Store(false)
				e.compactIfDueLocked()
			}()
		}
	case e.opts.CompactMaxAge <= 0: // no age trigger to arm
	case e.ageTimer == nil:
		e.ageTimer = time.AfterFunc(wait, func() {
			e.mu.Lock()
			defer e.mu.Unlock()
			e.compactIfDueLocked()
		})
	default:
		e.ageTimer.Reset(wait)
	}
}

// rebuild builds s's backend over s's whole rule list, at the leaf
// threshold s was built with, and returns the flat snapshot serving it as
// s's successor: the next version, the same rules generation. It is the
// only caller of a snapshot's builder.
func (e *Engine) rebuild(s *snapshot) (*snapshot, error) {
	if s.build == nil {
		return nil, fmt.Errorf("backend %q is not registered; overlay cannot be folded", s.backend)
	}
	set := s.rules()
	opts := e.opts
	opts.Binth = s.binth
	c, m, err := s.build(set, opts)
	if err != nil {
		return nil, err
	}
	base, err := newBase(c, set)
	if err != nil {
		return nil, err
	}
	return &snapshot{c: c, m: m, set: set, version: s.version + 1, rulesGen: s.rulesGen,
		backend: s.backend, binth: s.binth, build: s.build, base: base}, nil
}

// compactOnce rebuilds the base from the merged list off the critical path
// and rebases whatever overlay accumulated during the build. Readers are
// never blocked: the rebuild runs outside the writer lock, and the final
// rebase is one more RCU snapshot swap.
func (e *Engine) compactOnce() {
	cur := e.snap.Load()
	if cur.pending() == 0 {
		return
	}
	t0 := time.Now()
	ns, err := e.rebuild(cur)
	if err != nil {
		// Keep serving the overlay; a later trigger retries after the
		// failure backoff.
		e.noteCompactFailure(err)
		return
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.snap.Load()
	if now.base != cur.base {
		// The base generation changed while we were building — a
		// LoadArtifact or a synchronous compaction swapped in a different
		// rule universe (overlay updates carry the base pointer forward
		// unchanged, so this only trips on real base swaps). Rebasing
		// now's list onto the classifier built from the old list would
		// anchor the wrong rules (artifact IDs overlap), so drop this
		// build; the next trigger compacts against the new base.
		return
	}
	if now.rulesGen != cur.rulesGen {
		// Updates landed during the rebuild: rebase them onto the new base.
		view, err := updater.NewView(ns.base, now.rules())
		if err != nil {
			e.noteCompactFailure(err)
			return
		}
		ns = ns.withView(view, 0, 0)
	}
	// Either way the published rule list is now's, so the rules generation
	// — and with it every flow-cache entry — carries over.
	ns.version, ns.rulesGen = now.version+1, now.rulesGen
	e.publishCompaction(ns, t0)
}

// publishCompaction publishes the snapshot a compaction started at t0
// produced and records it: the count, the cost, telemetry and a cleared
// failure. Caller holds e.mu.
func (e *Engine) publishCompaction(ns *snapshot, t0 time.Time) {
	e.publishSnap(ns)
	nanos := time.Since(t0).Nanoseconds()
	if e.tel != nil {
		e.tel.Compaction.RecordNanos(0, nanos)
	}
	e.lastCompactNanos.Store(nanos)
	e.lastCompactErr.Store(nil)
	e.compactions.Add(1)
	// Restart the age clock: the updates a rebase carries forward arrived
	// during this rebuild, so their age budget starts now. Keeping the
	// pre-compaction timestamp would make CompactMaxAge see them as already
	// old and fire a spurious back-to-back rebuild.
	e.overlayDirty.Store(0)
	e.afterOverlayPublish(ns)
}

// noteCompactFailure records a failed background compaction so operators
// can see it (UpdaterStats / the server's stats line would otherwise show a
// frozen compaction count and nothing else) and arms the failure backoff.
func (e *Engine) noteCompactFailure(err error) {
	msg := err.Error()
	e.lastCompactErr.Store(&msg)
	e.compactFailures.Add(1)
	e.lastCompactFailAt.Store(time.Now().UnixNano())
}

// closeUpdater stops the age timer, closes the journal and waits for a
// compaction in flight; called from Close exactly once. Closed, the engine
// takes no update and starts no compaction.
func (e *Engine) closeUpdater() {
	e.mu.Lock()
	e.closed = true
	if e.ageTimer != nil {
		e.ageTimer.Stop()
	}
	if e.journal != nil {
		e.journal.Close()
		e.journal = nil
	}
	e.mu.Unlock()
	// Not under e.mu: a compaction in flight takes it to publish.
	e.compactWG.Wait()
}

// UpdaterStats is the observable state of the online-update subsystem,
// exposed through the server's "stats" admin request.
type UpdaterStats struct {
	// OverlayRules and Tombstones are the pending delta sizes.
	OverlayRules int
	// Tombstones is the number of deleted-but-not-yet-compacted base rules.
	Tombstones int
	// Rules is the merged (live) rule count.
	Rules int
	// Version is the snapshot generation (one per update, replayed update,
	// compaction or artifact load).
	Version uint64
	// Compactions counts completed base rebuilds (the base generation).
	Compactions uint64
	// Compacting reports whether a background compaction is in flight.
	Compacting bool
	// CompactThreshold is the pending-update count that triggers compaction
	// (<= 0 when background compaction is disabled).
	CompactThreshold int
	// LastCompactNanos is the wall-clock cost of the latest compaction.
	LastCompactNanos int64
	// CompactFailures counts failed background compactions; LastCompactError
	// is the most recent failure ("" after a success).
	CompactFailures  uint64
	LastCompactError string
	// JournalPath, JournalRecords and JournalBytes describe the durable
	// journal ("" / 0 when journaling is disabled).
	JournalPath    string
	JournalRecords int
	JournalBytes   int64
}

// UpdaterStats reports the online-update subsystem's current state.
func (e *Engine) UpdaterStats() UpdaterStats {
	s := e.snap.Load()
	st := UpdaterStats{
		Rules:            s.len(),
		Version:          s.version,
		Compactions:      e.compactions.Load(),
		Compacting:       e.compacting.Load(),
		CompactThreshold: e.compactThreshold,
		LastCompactNanos: e.lastCompactNanos.Load(),
		CompactFailures:  e.compactFailures.Load(),
	}
	if msg := e.lastCompactErr.Load(); msg != nil {
		st.LastCompactError = *msg
	}
	if s.view != nil {
		st.OverlayRules = s.view.OverlayLen()
		st.Tombstones = s.view.Tombstones()
	}
	e.mu.Lock()
	if e.journal != nil {
		st.JournalPath = e.journal.Path()
		st.JournalRecords = e.journal.Records()
		st.JournalBytes = e.journal.Bytes()
	}
	e.mu.Unlock()
	return st
}
