package engine

import (
	"fmt"
	"time"

	"neurocuts/internal/rule"
	"neurocuts/internal/updater"
)

// This file wires the delta-overlay update subsystem (internal/updater)
// into the Engine. It is the engine's only write path: no Insert or Delete
// rebuilds the backend. The update lands in a small sorted overlay of packed
// rules (inserts) or a tombstone set (deletes), a fresh immutable View is
// derived and published through the usual RCU snapshot swap, and a
// background compactor goroutine folds the overlay back into a rebuilt base
// off the critical path. A lookup pays the base lookup plus a scan of the
// overlay rules ranked at or above the base winner, so the compaction
// threshold bounds the overlay's cost. Every update is journaled (when a
// journal is configured) before its snapshot is published, so acknowledged
// updates survive a crash and replay at the next warm start.
//
// The overlay base (an ID index over the whole rule list) and the compactor
// goroutine exist only once something needs them: the first update, or
// construction when a journal must be replayed. A table that is never
// updated pays for neither.

// DefaultCompactThreshold is the pending-update count (overlay rules plus
// tombstones) at which background compaction kicks in when
// Options.CompactThreshold is 0.
const DefaultCompactThreshold = 256

// overlayClassifier adapts an updater.View to the Classifier interface so
// the engine's read path (flow cache, batch fan-out, pools) serves merged
// base+overlay lookups unchanged.
type overlayClassifier struct {
	view *updater.View
	m    Metrics
}

func (o *overlayClassifier) Classify(p rule.Packet) (rule.Rule, bool) { return o.view.Classify(p) }

// overlayScratch stages one batch's merged results in the updater's
// parallel-array shape before they are folded into the engine's []Result.
type overlayScratch struct {
	rules []rule.Rule
	oks   []bool
	// out stages the backend's []Result when this scratch serves the base
	// batch adapter in newBase (sized lazily there).
	out []Result
}

// overlayScratches recycles overlay batch scratches — a buffered channel
// rather than sync.Pool for the same race-determinism reason as idxBufs.
var overlayScratches = make(chan *overlayScratch, 64)

func getOverlayScratch(n int) *overlayScratch {
	var sc *overlayScratch
	select {
	case sc = <-overlayScratches:
	default:
		sc = new(overlayScratch)
	}
	if cap(sc.rules) < n {
		sc.rules = make([]rule.Rule, n)
		sc.oks = make([]bool, n)
	}
	return sc
}

func putOverlayScratch(sc *overlayScratch) {
	select {
	case overlayScratches <- sc:
	default:
	}
}

// ClassifyBatch serves the span through the updater view's batched merge, so
// the base lookups underneath run as one backend batch (the compiled frontier
// walk for tree backends) instead of one packet at a time.
func (o *overlayClassifier) ClassifyBatch(ps []rule.Packet, out []Result) {
	sc := getOverlayScratch(len(ps))
	rules, oks := sc.rules[:len(ps)], sc.oks[:len(ps)]
	o.view.ClassifyBatch(ps, rules, oks)
	for i := range ps {
		out[i].Rule, out[i].OK = rules[i], oks[i]
	}
	putOverlayScratch(sc)
}

func (o *overlayClassifier) Metrics() Metrics { return o.m }

// newBase wraps a built classifier as an overlay base, handing the updater
// both the scalar and the batched lookup so merged views can classify spans
// through the backend's batch path. A compiled classifier also lends the
// base its packed rule records, so tombstone rescans cost no second copy.
func newBase(cls Classifier, set *rule.Set) (*updater.Base, error) {
	batch := func(ps []rule.Packet, rules []rule.Rule, oks []bool) {
		sc := getOverlayScratch(len(ps))
		// getOverlayScratch only sizes rules/oks; the Result staging area
		// rides alongside so the base batch reuses the same freelist.
		if cap(sc.out) < len(ps) {
			sc.out = make([]Result, len(ps))
		}
		out := sc.out[:len(ps)]
		cls.ClassifyBatch(ps, out)
		for i := range out {
			rules[i], oks[i] = out[i].Rule, out[i].OK
		}
		putOverlayScratch(sc)
	}
	var packed []rule.Packed
	if cp, ok := cls.(CompiledProvider); ok {
		packed = cp.Compiled().Packed()
	}
	return updater.NewBasePacked(set, cls.Classify, batch, packed)
}

// initUpdater finishes engine construction for the write path: it fixes the
// compaction threshold and, when a journal is configured, derives the base,
// opens and replays the journal and starts the compactor — replay needs them
// now. Without a journal both wait for the first update (writeSnapLocked).
// Called once from NewEngine / NewEngineFromArtifact, before the engine is
// visible to any other goroutine.
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
	meta := updater.JournalMeta{
		Backend:     cur.backend,
		BaseRules:   cur.set.Len(),
		BaseCRC:     updater.Fingerprint(cur.set),
		CreatedUnix: time.Now().Unix(),
	}
	j, ops, err := updater.OpenJournal(e.opts.JournalPath, meta, !e.opts.JournalNoSync)
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
	e.startCompactorLocked()
	// Journal replay ran before the compactor existed, so a replayed overlay
	// already past the threshold dropped its signal — re-arm it now that
	// someone is listening.
	e.afterOverlayPublish(e.snap.Load())
	return nil
}

// baseSnapLocked returns the current snapshot, first giving it an overlay
// base if it has none (a never-updated engine, or one whose LoadArtifact
// dropped it). The base changes no answer, so the snapshot is replaced in
// place: same version, no publish hook. A rule list the overlay cannot
// anchor (non-canonical priorities, duplicate IDs) fails here, and the
// snapshot is returned as it was. Caller holds e.mu.
func (e *Engine) baseSnapLocked() (*snapshot, error) {
	cur := e.snap.Load()
	if cur.base != nil {
		return cur, nil
	}
	base, err := newBase(cur.baseCls, cur.set)
	if err != nil {
		return cur, err
	}
	ns := *cur
	ns.base = base
	e.snap.Store(&ns)
	return &ns, nil
}

// startCompactorLocked starts the background compactor unless one is
// running, background compaction is disabled, or the engine is closed (Close
// has already stopped what it was going to stop). Caller holds e.mu.
func (e *Engine) startCompactorLocked() {
	if e.compactCh != nil || e.closed || (e.compactThreshold <= 0 && e.opts.CompactMaxAge <= 0) {
		return
	}
	e.stopCompact = make(chan struct{})
	e.compactorDone = make(chan struct{})
	e.compactCh = make(chan struct{}, 1)
	go e.compactor()
}

// writeSnapLocked is how every update starts: the current snapshot with its
// overlay base in place and the compactor listening. On error the snapshot
// is still returned, for the caller's failure result. Caller holds e.mu.
func (e *Engine) writeSnapLocked() (*snapshot, error) {
	cur, err := e.baseSnapLocked()
	if err == nil {
		e.startCompactorLocked()
	}
	return cur, err
}

// replayJournal applies recovered journal records to the engine's starting
// rule list and publishes one merged view over them. One snapshot covers
// the whole replay; the version advances by the number of replayed updates
// so it matches what a non-crashed engine would report.
func (e *Engine) replayJournal(ops []updater.Op) error {
	cur := e.snap.Load()
	merged, maxID, err := updater.Replay(cur.set, ops)
	if err != nil {
		return err
	}
	view, err := updater.NewView(cur.base, merged)
	if err != nil {
		return fmt.Errorf("engine: journal replay: %w", err)
	}
	m := cur.baseCls.Metrics()
	m.Rules = merged.Len()
	e.snap.Store(&snapshot{cls: &overlayClassifier{view: view, m: m}, baseCls: cur.baseCls,
		set: merged, version: cur.version + uint64(len(ops)), rulesGen: cur.rulesGen + 1,
		backend: cur.backend, build: cur.build, base: cur.base})
	if maxID >= e.nextID {
		e.nextID = maxID + 1
	}
	e.afterOverlayPublish(e.snap.Load())
	return nil
}

// applyOverlayLocked publishes one update through the overlay path: derive
// the next view, journal the op, swap the snapshot. Any rule fits the
// overlay, so no update needs the backend's builder; NewView fails only on a
// merged list the engine's own edits cannot produce. Caller holds e.mu.
func (e *Engine) applyOverlayLocked(cur *snapshot, next *rule.Set, op updater.Op) (UpdateResult, error) {
	fail := UpdateResult{Version: cur.version, Rules: cur.set.Len()}
	view, err := updater.NewView(cur.base, next)
	if err != nil {
		return fail, fmt.Errorf("engine: overlay update: %w", err)
	}
	m := cur.baseCls.Metrics()
	m.Rules = next.Len()
	ns := &snapshot{cls: &overlayClassifier{view: view, m: m}, baseCls: cur.baseCls,
		set: next, version: cur.version + 1, rulesGen: cur.rulesGen + 1,
		backend: cur.backend, build: cur.build, base: cur.base}
	// Journal before publish: an update is acknowledged only once durable.
	if e.journal != nil {
		if err := e.journal.Append(op); err != nil {
			return fail, err
		}
	}
	e.publishSnap(ns)
	e.afterOverlayPublish(ns)
	return UpdateResult{ID: op.ID, Version: ns.version, Rules: next.Len()}, nil
}

// pending is the snapshot's count of updates not yet folded into its base:
// overlay rules plus tombstones.
func (s *snapshot) pending() int {
	oc, ok := s.cls.(*overlayClassifier)
	if !ok {
		return 0
	}
	return oc.view.OverlayLen() + oc.view.Tombstones()
}

// afterOverlayPublish maintains the compaction triggers after a snapshot
// swap: the age clock starts when the first pending update appears, and the
// size threshold signals the compactor (non-blocking; signals coalesce).
func (e *Engine) afterOverlayPublish(ns *snapshot) {
	pending := ns.pending()
	if pending == 0 {
		e.overlayDirty.Store(0)
		return
	}
	if e.overlayDirty.Load() == 0 {
		e.overlayDirty.Store(time.Now().UnixNano())
	}
	if e.compactCh != nil && e.compactThreshold > 0 && pending >= e.compactThreshold {
		select {
		case e.compactCh <- struct{}{}:
		default:
		}
	}
}

// compactor is the background goroutine that folds the overlay back into a
// rebuilt base. It wakes on size-threshold signals and, when CompactMaxAge
// is set, on a ticker that compacts overlays past their age budget.
func (e *Engine) compactor() {
	defer close(e.compactorDone)
	var tickC <-chan time.Time
	if age := e.opts.CompactMaxAge; age > 0 {
		interval := age / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-e.stopCompact:
			return
		case <-e.compactCh:
			// The size trigger is a function of overlay size only: a signal
			// raised while a compaction was running describes an overlay
			// that compaction has since folded.
			if e.snap.Load().pending() < e.compactThreshold {
				continue
			}
		case <-tickC:
			since := e.overlayDirty.Load()
			if since == 0 || time.Since(time.Unix(0, since)) < e.opts.CompactMaxAge {
				continue
			}
		}
		select {
		case <-e.stopCompact:
			return
		default:
		}
		// Failure backoff: a merged list the backend cannot rebuild would
		// otherwise burn a core re-attempting a doomed O(ruleset) build on
		// every update signal.
		if at := e.lastCompactFailAt.Load(); at != 0 && time.Since(time.Unix(0, at)) < compactFailureBackoff {
			continue
		}
		e.compactOnce()
	}
}

// compactFailureBackoff is the minimum pause between background compaction
// attempts after a failure.
const compactFailureBackoff = 2 * time.Second

// compactOnce rebuilds the base from the merged list off the critical path
// and rebases whatever overlay accumulated during the build. Readers are
// never blocked: the rebuild runs outside the writer lock, and the final
// rebase is one more RCU snapshot swap.
func (e *Engine) compactOnce() {
	e.compacting.Store(true)
	defer e.compacting.Store(false)

	e.mu.Lock()
	cur := e.snap.Load()
	if cur.pending() == 0 {
		e.mu.Unlock()
		return
	}
	if cur.build == nil {
		e.mu.Unlock()
		e.noteCompactFailure(fmt.Errorf("backend %q is not registered; overlay cannot be folded", cur.backend))
		return
	}
	frozen := cur.set // the merged list being folded into the new base
	build := cur.build
	e.mu.Unlock()

	t0 := time.Now()
	cls, err := build(frozen, e.opts)
	if err != nil {
		// Keep serving the overlay; the next threshold signal retries
		// (after the failure backoff in the compactor loop).
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
		// now.set onto the classifier built from the old
		// list would anchor the wrong rules (artifact IDs overlap), so drop
		// this build; the next signal compacts against the new base.
		return
	}
	base, err := newBase(cls, frozen)
	if err != nil {
		e.noteCompactFailure(err)
		return
	}
	// Either way the published rule list is now.set, so the rules generation
	// — and with it every flow-cache entry — carries over.
	var ns *snapshot
	if now.set == frozen {
		// No updates landed during the rebuild: the new base serves directly.
		ns = &snapshot{cls: cls, baseCls: cls, set: frozen, version: now.version + 1, rulesGen: now.rulesGen,
			backend: now.backend, build: now.build, base: base}
	} else {
		view, verr := updater.NewView(base, now.set)
		if verr != nil {
			e.noteCompactFailure(verr)
			return
		}
		m := cls.Metrics()
		m.Rules = now.set.Len()
		ns = &snapshot{cls: &overlayClassifier{view: view, m: m}, baseCls: cls,
			set: now.set, version: now.version + 1, rulesGen: now.rulesGen,
			backend: now.backend, build: now.build, base: base}
	}
	e.publishSnap(ns)
	e.compactions.Add(1)
	e.lastCompactNanos.Store(time.Since(t0).Nanoseconds())
	if e.tel != nil {
		e.tel.Compaction.RecordNanos(0, time.Since(t0).Nanoseconds())
	}
	e.lastCompactErr.Store(nil)
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

// compactLocked synchronously rebuilds the base from the current merged
// list (caller holds e.mu). Used by SaveArtifact so the saved artifact
// embodies every pending overlay update.
func (e *Engine) compactLocked() error {
	cur := e.snap.Load()
	if cur.build == nil {
		return fmt.Errorf("engine: backend %q is not registered; cannot compact", cur.backend)
	}
	t0 := time.Now()
	cls, err := cur.build(cur.set, e.opts)
	if err != nil {
		return fmt.Errorf("engine: compacting: %w", err)
	}
	base, err := newBase(cls, cur.set)
	if err != nil {
		return err
	}
	e.publishSnap(&snapshot{cls: cls, baseCls: cls, set: cur.set, version: cur.version + 1, rulesGen: cur.rulesGen,
		backend: cur.backend, build: cur.build, base: base})
	e.compactions.Add(1)
	e.lastCompactNanos.Store(time.Since(t0).Nanoseconds())
	if e.tel != nil {
		e.tel.Compaction.RecordNanos(0, time.Since(t0).Nanoseconds())
	}
	e.overlayDirty.Store(0)
	return nil
}

// closeUpdater stops the compactor and closes the journal; called from
// Close exactly once.
func (e *Engine) closeUpdater() {
	e.mu.Lock()
	e.closed = true
	stop := e.stopCompact
	e.mu.Unlock()
	if stop != nil {
		// Not under e.mu: a compaction in flight takes it to publish.
		close(stop)
		<-e.compactorDone
	}
	e.mu.Lock()
	if e.journal != nil {
		e.journal.Close()
		e.journal = nil
	}
	e.mu.Unlock()
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
		Rules:            s.set.Len(),
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
	if oc, ok := s.cls.(*overlayClassifier); ok {
		st.OverlayRules = oc.view.OverlayLen()
		st.Tombstones = oc.view.Tombstones()
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
