// Package engine unifies every packet-classification backend in this
// repository behind one serving form and one serving runtime.
//
// The served classification data structures are the learned NeuroCuts
// trees, the paper's hand-tuned baselines (HiCuts / HyperCuts / EffiCuts /
// CutSplit) and the linear-search reference. Each builder has its own Build
// shape. This package gives them a common face:
//
//   - Every backend is a tree builder, and one build step turns its trees
//     into the same compiled.Classifier, the flat-array form a lookup
//     answers with a position in the rule list, not a rule; linear search
//     is the tree with no cuts, one leaf holding every rule. backends.go
//     registers every algorithm in a name-keyed registry, so callers select
//     backends by string ("hicuts", "linear", ...) instead of switching
//     over packages; BuildTrees hands out the trees themselves.
//   - Engine serves that compiled classifier with a runtime: lookups (single
//     and batch) run to completion on the caller behind an optional
//     lock-free flow cache, so parallelism comes only from concurrent
//     callers, and rule updates (Insert / Delete) land in a delta overlay
//     over the built structure (overlay.go) that a compaction goroutine,
//     started by the triggering update, folds into a rebuild off the
//     critical path; every new generation is swapped in atomically
//     (RCU-style, via atomic.Pointer), so readers are never blocked and
//     every lookup observes one coherent snapshot.
//
// Positions stay positions through every layer below the Engine's edge
// (Engine.Classify/ClassifyBatch and View): only there is the winning rule
// copied, once, into the caller's Result.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"neurocuts/internal/compiled"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
	"neurocuts/internal/updater"
)

// Result is the outcome of classifying one packet in a batch.
type Result struct {
	// Rule is the highest-priority matching rule when OK is true.
	Rule rule.Rule
	// OK reports whether any rule matched.
	OK bool
}

// Metrics is the backend-independent cost summary every backend reports.
type Metrics struct {
	// Backend is the registry name of the backend ("hicuts", "linear", ...).
	Backend string
	// Rules is the classifier size (rules, not expanded entries).
	Rules int
	// LookupCost is the worst-case number of sequential steps per lookup:
	// node visits for trees, rules scanned for linear search.
	LookupCost int
	// MemoryBytes is the modelled memory footprint.
	MemoryBytes int
	// BytesPerRule is MemoryBytes divided by Rules.
	BytesPerRule float64
	// Entries is the number of stored elements (tree rule references, or
	// the rules themselves for linear search); Entries / Rules is the
	// replication factor.
	Entries int
	// CompiledBytes is the actual footprint of the compiled flat-array
	// serving form, linear search's one-leaf tree included. MemoryBytes
	// stays the paper's modelled cost so figures remain comparable across
	// PRs.
	CompiledBytes int
}

// snapshot is one immutable rule-list generation and what serves it: the
// compiled classifier over its base list and, while updates are pending, the
// overlay view over that base. Readers load it once per operation so a
// concurrent swap can never tear a lookup. The backend identity travels with
// the snapshot because LoadArtifact can swap in a classifier built by a
// different backend.
type snapshot struct {
	// c is the compiled classifier over set: every backend's serving form.
	c *compiled.Classifier
	// m is c's metrics: the backend's build-time figures, or the compiled
	// form's own for a loaded artifact. Rules is the base's count.
	m Metrics
	// set is the base rule list c was built over (and an overlay base
	// indexes); with no view it is the snapshot's rule list.
	set *rule.Set
	// view serves the snapshot while updates are pending over the base, nil
	// otherwise. Its positions index its merged list, which is then the
	// snapshot's: merged materializes it, once, only when asked for (rules).
	view    *updater.View
	merged  func() *rule.Set
	version uint64
	// rulesGen tags flow-cache entries. It advances with every snapshot
	// whose rule list differs from its predecessor's and stays put across a
	// compaction, which republishes the same list under a new version — so
	// cached rule positions stay valid exactly as long as they are right.
	rulesGen uint64
	// backend is the registry name of the backend that produced c.
	backend string
	// binth is the leaf threshold c was built with: the engine's option
	// for a cold build, the artifact's metadata for a warm start. A
	// compaction rebuilds with it and SaveArtifact stamps it.
	binth int
	// build rebuilds the backend when a compaction folds the overlay in: its
	// registry entry's build step. It is nil for engines warm-started from
	// an artifact whose backend is not registered; such engines serve
	// lookups and take updates, but their overlay can never be folded
	// (compactOnce records the failure).
	build func(set *rule.Set, opts Options) (*compiled.Classifier, Metrics, error)
	// base is the overlay's view-derivation base over c. It is nil until the
	// first update needs it (baseSnapLocked) and is replaced on every
	// compaction.
	base *updater.Base
}

// lookup returns the position of p's winner in the snapshot's rule list, or
// -1.
func (s *snapshot) lookup(p rule.Packet) int32 {
	if s.view != nil {
		return s.view.Lookup(p)
	}
	return int32(s.c.LookupIndex(p))
}

// lookupBatch writes lookup(ps[i]) to pos[i] for every i: the compiled
// frontier walk over the whole span (compiled.LookupBatch), under the view's
// batched merge when updates are pending. pos must be at least as long as
// ps.
func (s *snapshot) lookupBatch(ps []rule.Packet, pos []int32) {
	if s.view != nil {
		s.view.LookupBatch(ps, pos)
		return
	}
	s.c.LookupBatch(ps, pos)
}

// Engine serves a registered backend with cached lookups that run on the
// caller and non-blocking atomic rule updates.
type Engine struct {
	opts Options

	// snap is the current read snapshot (RCU-style: writers build a new
	// snapshot off-line and publish it with a single pointer swap).
	snap atomic.Pointer[snapshot]

	// mu serialises writers; readers never take it.
	mu     sync.Mutex
	nextID int

	// cache is the optional flow cache (nil when disabled).
	cache *FlowCache

	closeOnce sync.Once

	// Write-path state (see overlay.go). compactThreshold is set once before
	// the engine is shared; journal, closed and ageTimer are guarded by mu;
	// the counters are atomics.
	compactThreshold int
	closed           bool
	// ageTimer runs the CompactMaxAge trigger (nil until first armed);
	// compactWG counts compaction goroutines, for Close to wait on.
	ageTimer  *time.Timer
	compactWG sync.WaitGroup
	// artifactPath is the artifact this engine's state derives from (set by
	// NewEngineFromArtifact and LoadArtifact, "" for cold-built engines).
	// SaveArtifact uses it to decide whether a save is a checkpoint of the
	// engine's own pair (rotate the journal) or a side snapshot (leave the
	// journal describing the original start). Guarded by mu.
	artifactPath     string
	journal          *updater.Journal
	compactions      atomic.Uint64
	compacting       atomic.Bool
	lastCompactNanos atomic.Int64
	// Compaction failure telemetry: count, latest message (nil after a
	// success) and the time of the latest failure (drives the compaction
	// retry backoff).
	compactFailures   atomic.Uint64
	lastCompactErr    atomic.Pointer[string]
	lastCompactFailAt atomic.Int64
	// overlayDirty is the UnixNano timestamp of the oldest pending overlay
	// update (0 when the overlay is empty), driving age-based compaction.
	overlayDirty atomic.Int64

	// Serving counters (see Stats). lookups counts packets classified
	// through Classify; batches and batchPackets count ClassifyBatch calls
	// and the packets they carried. They are bumped once per entry-point
	// call, so the per-packet serving cost stays one uncontended atomic add
	// per call.
	lookups      atomic.Uint64
	batches      atomic.Uint64
	batchPackets atomic.Uint64
	// updates / updateFailures count Insert+Delete outcomes.
	updates        atomic.Uint64
	updateFailures atomic.Uint64

	// tel is the optional shared telemetry instance (nil: disabled).
	// telTableID is the interned flight-recorder table label; telBackendID
	// follows the serving snapshot's backend (LoadArtifact can change it)
	// and is refreshed on every publish.
	tel          *telemetry.Telemetry
	telTableID   uint32
	telBackendID atomic.Uint32
}

// publishSnap publishes a new snapshot. Every post-construction snapshot
// swap goes through here so the flight recorder's backend label follows it.
func (e *Engine) publishSnap(ns *snapshot) {
	e.snap.Store(ns)
	if e.tel != nil {
		// Publishing is the cold path, so re-interning the backend name
		// (a mutexed map probe) is fine; it keeps the flight recorder's
		// backend attribution correct across artifact loads.
		e.telBackendID.Store(e.tel.Intern(ns.backend))
	}
}

// View is a pinned read handle on one engine snapshot: an immutable
// (classifier, rule set) generation. A View stays valid (and consistent)
// indefinitely; holding an old one merely serves an older rule-set
// generation, the usual RCU contract.
type View struct {
	s *snapshot
}

// CurrentView returns a View pinned to the engine's current snapshot.
func (e *Engine) CurrentView() View { return View{s: e.snap.Load()} }

// ClassifyBatch classifies ps[i] into out[i] against the pinned snapshot,
// uncached and on the caller. The compiled classifier sees the whole span at
// once, so it serves it through the frontier walk instead of one
// dependent-load chain per packet. out must be at least as long as ps.
func (v View) ClassifyBatch(ps []rule.Packet, out []Result) { v.s.classifyUncached(ps, out) }

// ClassifyCached is ClassifyBatch through the caller's own flow cache c
// (nil: uncached). It runs to completion on the caller and never touches
// the engine's cache.
func (v View) ClassifyCached(c *FlowCache, ps []rule.Packet, out []Result) {
	if c == nil {
		v.ClassifyBatch(ps, out)
		return
	}
	v.s.classifyCached(c, ps, out)
}

// EngineStats is an operator-visible snapshot of an engine's serving state:
// identity, counters, flow-cache effectiveness and the online-update
// subsystem's state. It is what the HTTP admin plane's /metrics endpoint
// renders (internal/admin), one sample set per table.
type EngineStats struct {
	// Backend is the registry name of the backend serving the snapshot.
	Backend string
	// Rules is the live (merged) rule count.
	Rules int
	// Version is the snapshot generation counter.
	Version uint64
	// Lookups is the total number of packets classified (single lookups
	// plus every packet of every batch).
	Lookups uint64
	// Batches is the number of ClassifyBatch calls served.
	Batches uint64
	// Updates and UpdateFailures count Insert/Delete outcomes.
	Updates        uint64
	UpdateFailures uint64
	// CacheHits and CacheMisses are the flow cache's cumulative counters
	// (zero when the engine runs without a cache).
	CacheHits   uint64
	CacheMisses uint64
	// Updater is the online-update subsystem's state.
	Updater UpdaterStats
}

// Stats returns a point-in-time snapshot of the engine's serving counters.
func (e *Engine) Stats() EngineStats {
	s := e.snap.Load()
	hits, misses := e.CacheStats()
	return EngineStats{
		Backend:        s.backend,
		Rules:          s.len(),
		Version:        s.version,
		Lookups:        e.lookups.Load() + e.batchPackets.Load(),
		Batches:        e.batches.Load(),
		Updates:        e.updates.Load(),
		UpdateFailures: e.updateFailures.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		Updater:        e.UpdaterStats(),
	}
}

// NewEngine builds the named backend over the rule set and wraps it in an
// Engine.
func NewEngine(name string, set *rule.Set, opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	entry, err := lookupBackend(name)
	if err != nil {
		return nil, err
	}
	c, m, err := entry.build(set, opts)
	if err != nil {
		return nil, err
	}
	return newEngine(&snapshot{c: c, m: m, set: set, version: 1, rulesGen: 1, backend: entry.name, binth: opts.Binth, build: entry.build}, opts)
}

// newEngine wraps a first snapshot in an Engine: the flow cache, the next
// rule ID, the update path (which replays a journal) and telemetry. opts
// already carries its defaults.
func newEngine(s *snapshot, opts Options) (*Engine, error) {
	e := &Engine{opts: opts, cache: NewFlowCache(opts.FlowCacheEntries)}
	e.snap.Store(s)
	e.raiseNextID(s.set)
	// Telemetry first: a journal replay can start a compaction, which
	// publishes through it.
	e.initTelemetry()
	if err := e.initUpdater(); err != nil {
		return nil, err
	}
	return e, nil
}

// raiseNextID moves the next assigned rule ID past every ID in set.
func (e *Engine) raiseNextID(set *rule.Set) {
	for _, r := range set.Rules() {
		if r.ID >= e.nextID {
			e.nextID = r.ID + 1
		}
	}
}

// Backend returns the registry name of the backend serving the current
// snapshot.
func (e *Engine) Backend() string { return e.snap.Load().backend }

// Version returns the current snapshot's generation counter; it increases by
// one per successful Insert or Delete.
func (e *Engine) Version() uint64 { return e.snap.Load().version }

// Rules returns the current snapshot's rule set. The returned set is
// immutable: updates replace it rather than mutating it. A snapshot with
// pending updates materializes its list on the first call (O(rules)), and
// later calls on the same snapshot return the same set; callers that need
// only the count use Len.
func (e *Engine) Rules() *rule.Set { return e.snap.Load().rules() }

// Len returns the current snapshot's rule count without materializing its
// list.
func (e *Engine) Len() int { return e.snap.Load().len() }

// rules returns the snapshot's rule list: the flat one, or an overlay
// snapshot's, materialized through its view once.
func (s *snapshot) rules() *rule.Set {
	if s.view == nil {
		return s.set
	}
	return s.merged()
}

// len returns the snapshot's rule count.
func (s *snapshot) len() int {
	if s.view != nil {
		return s.view.Len()
	}
	return s.set.Len()
}

// source returns what the snapshot's positions are materialized from: its
// view when it has one (put tries it first), its flat rule list otherwise.
func (s *snapshot) source() ([]rule.Rule, *updater.View) { return s.set.Rules(), s.view }

// Classify looks up one packet in the current snapshot, consulting the flow
// cache first when one is configured. The path performs zero heap
// allocations for every backend (alloc_test.go pins linear and a tree), with
// or without a pending overlay.
func (e *Engine) Classify(p rule.Packet) (rule.Rule, bool) {
	e.lookups.Add(1)
	s := e.snap.Load()
	if e.tel == nil {
		r, ok, _ := e.classifyOne(s, p)
		return r, ok
	}
	return e.classifyOneTimed(s, p)
}

// classifyOne is the cache-aware single-packet path against a pinned
// snapshot; hit reports whether the flow cache answered.
func (e *Engine) classifyOne(s *snapshot, p rule.Packet) (r rule.Rule, ok, hit bool) {
	var idx int32
	var h uint64
	if c := e.cache; c == nil {
		idx = s.lookup(p)
	} else if idx, hit, h = c.Get(p, s.rulesGen); hit {
		c.Count(1, 0)
	} else {
		c.Count(0, 1)
		idx = s.lookup(p)
		c.Put(h, p, s.rulesGen, idx)
	}
	r, ok = s.rule(idx)
	return r, ok, hit
}

// rule materializes position idx of the snapshot's rule list (-1: no match)
// — the one copy of the winning rule a single lookup makes.
func (s *snapshot) rule(idx int32) (rule.Rule, bool) {
	switch {
	case idx < 0:
		return rule.Rule{}, false
	case s.view != nil:
		return s.view.Rule(int(idx)), true
	}
	return s.set.Rule(int(idx)), true
}

// put materializes position idx of a snapshot's list into *r — the one copy
// of the winning rule an answered packet of a batch costs. rules and v are
// the snapshot's source: a flat list, or (v non-nil) an overlay view.
func put(r *Result, rules []rule.Rule, v *updater.View, idx int32) {
	switch {
	case idx < 0:
		*r = Result{}
	case v != nil:
		v.RuleTo(&r.Rule, int(idx))
		r.OK = true
	default:
		r.Rule, r.OK = rules[idx], true
	}
}

// missScratch holds one batch's cache misses so they can be classified as a
// single backend batch (and so reach the compiled frontier walk)
// instead of one packet at a time; an uncached batch is all misses and uses
// only idx, for its positions.
type missScratch struct {
	ps  []rule.Packet
	pos []int32  // where each miss's result goes
	idx []int32  // the cache's answer per packet, then each miss's position
	h   []uint64 // the probe's flow hash per missed packet, then each miss's, for its Put
}

// missScratches recycles miss-collection scratches. A buffered channel rather
// than sync.Pool so the cached batch path stays allocation-free under the
// race detector too (Pool drops a fraction of Puts there).
var missScratches = make(chan *missScratch, 64)

func getMissScratch(n int) *missScratch {
	var ms *missScratch
	select {
	case ms = <-missScratches:
	default:
		ms = new(missScratch)
	}
	if cap(ms.ps) < n {
		ms.ps = make([]rule.Packet, n)
		ms.pos = make([]int32, n)
		ms.idx = make([]int32, n)
		ms.h = make([]uint64, n)
	}
	return ms
}

func putMissScratch(ms *missScratch) {
	select {
	case missScratches <- ms:
	default:
	}
}

// classifyCached serves ps through the flow cache c. A hit is one set probe
// and one copy out of the rule list; the misses are gathered so the backend
// sees one dense span — the compiled frontier walk runs even behind the
// cache. Each miss's position fills the cache under the hash its
// probe computed, and its rule is copied once, into out.
func (s *snapshot) classifyCached(c *FlowCache, ps []rule.Packet, out []Result) {
	ms := getMissScratch(len(ps))
	rules, v := s.source()
	idx := ms.idx[:len(ps)]
	c.GetBatch(ps, s.rulesGen, idx, ms.h)
	miss := 0
	for i := range ps {
		if ix := idx[i]; ix != FlowMiss {
			put(&out[i], rules, v, ix) // a hit, or a cached "no rule matches"
		} else {
			ms.ps[miss], ms.pos[miss], ms.h[miss] = ps[i], int32(i), ms.h[i]
			miss++
		}
	}
	if miss > 0 {
		// The probe answers are all read: the front of idx takes the misses'.
		mps, midx := ms.ps[:miss], idx[:miss]
		s.lookupBatch(mps, midx)
		for j, ix := range midx {
			put(&out[ms.pos[j]], rules, v, ix)
			c.Put(ms.h[j], mps[j], s.rulesGen, ix)
		}
	}
	c.Count(len(ps)-miss, miss)
	putMissScratch(ms)
}

// Metrics reports the current snapshot's metrics, with Rules its live rule
// count.
func (e *Engine) Metrics() Metrics {
	s := e.snap.Load()
	m := s.m
	m.Rules = s.len()
	return m
}

// ClassifyBatch classifies every packet of the batch against one coherent
// snapshot, running to completion on the caller: the flow cache (when
// configured) is probed for the whole batch in line, and only the packets
// it cannot answer reach the backend, as one span. Concurrent callers are
// the only parallelism. Steady-state the path performs no heap allocations.
func (e *Engine) ClassifyBatch(ps []rule.Packet, out []Result) {
	s := e.snap.Load()
	e.batches.Add(1)
	e.batchPackets.Add(uint64(len(ps)))
	if e.tel != nil {
		e.classifyBatchTimed(s, ps, out)
		return
	}
	e.classifyBatch(s, ps, out)
}

func (e *Engine) classifyBatch(s *snapshot, ps []rule.Packet, out []Result) {
	View{s}.ClassifyCached(e.cache, ps, out)
}

// classifyUncached answers a dense span with no cache in front: positions
// into a recycled scratch, then one copy per packet into out.
func (s *snapshot) classifyUncached(ps []rule.Packet, out []Result) {
	ms := getMissScratch(len(ps))
	pos := ms.idx[:len(ps)]
	s.lookupBatch(ps, pos)
	rules, v := s.source()
	for i := range ps {
		put(&out[i], rules, v, pos[i])
	}
	putMissScratch(ms)
}

// Close stops the compaction age timer, closes the update journal and waits
// for a compaction in flight. It is safe to call more than once. Lookups
// (single and batch) keep answering after Close, against the last published
// snapshot; updates and artifact loads fail with ErrClosed. An engine that
// never took an update holds no goroutine, so Close is optional for
// short-lived read-only engines.
func (e *Engine) Close() { e.closeOnce.Do(e.closeUpdater) }

// UpdateResult describes the snapshot published by one successful update.
// All three fields come from the same snapshot, so a caller can report a
// consistent (version, rule count) pair even under concurrent writers.
type UpdateResult struct {
	// ID is the rule affected: the ID assigned on Insert, the ID removed
	// on Delete.
	ID int
	// Version is the published snapshot's generation counter.
	Version uint64
	// Rules is the published snapshot's rule count.
	Rules int
}

// ErrRuleNotFound is wrapped by Delete when no live rule carries the
// requested ID (including a second delete of an already-removed rule).
var ErrRuleNotFound = errors.New("rule not found")

// ErrClosed is returned by Insert, Delete and LoadArtifact on a closed
// engine: they publish nothing, so no update is acknowledged that the
// closed journal could not make durable.
var ErrClosed = errors.New("engine: closed")

// Insert adds a rule at priority position pos and atomically swaps the new
// snapshot in; concurrent readers keep classifying against the old snapshot
// until the swap. Positions outside [0, Rules()] are clamped to the nearest
// bound (pos<0 inserts at the top, pos>len appends), so Insert never fails
// on position alone. The rule lands in the delta overlay; the backend is
// rebuilt only by a later compaction, off the critical path.
func (e *Engine) Insert(pos int, r rule.Rule) (UpdateResult, error) {
	t0 := time.Now()
	res, err := e.doInsert(pos, r)
	if e.tel != nil {
		e.tel.UpdateInsert.RecordNanos(0, time.Since(t0).Nanoseconds())
	}
	e.countUpdate(err)
	return res, err
}

// countUpdate bumps the update outcome counters after an Insert or Delete.
func (e *Engine) countUpdate(err error) {
	if err != nil {
		e.updateFailures.Add(1)
	} else {
		e.updates.Add(1)
	}
}

func (e *Engine) doInsert(pos int, r rule.Rule) (UpdateResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, err := e.baseSnapLocked()
	if err != nil {
		return cur.failed(), err
	}
	// Clamp before journaling so replay applies the position actually used.
	pos = max(0, min(pos, cur.len()))
	r.ID = e.nextID
	view, err := cur.overlayView().Insert(pos, r)
	if err != nil {
		return cur.failed(), fmt.Errorf("engine: overlay insert: %w", err)
	}
	res, err := e.applyOverlayLocked(cur, view, updater.Op{Kind: updater.OpInsert, Pos: pos, ID: r.ID, Rule: r})
	if err == nil {
		e.nextID++
	}
	return res, err
}

// Delete removes the rule with the given ID and swaps the new snapshot in.
// Deleting an ID with no live rule (never inserted, or already deleted)
// fails with an error wrapping ErrRuleNotFound that names the ID. Deleting a
// base rule leaves a tombstone in the delta overlay; the backend is rebuilt
// only by a later compaction.
func (e *Engine) Delete(id int) (UpdateResult, error) {
	t0 := time.Now()
	res, err := e.doDelete(id)
	if e.tel != nil {
		e.tel.UpdateDelete.RecordNanos(0, time.Since(t0).Nanoseconds())
	}
	e.countUpdate(err)
	return res, err
}

func (e *Engine) doDelete(id int) (UpdateResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, err := e.baseSnapLocked()
	if err != nil {
		return cur.failed(), err
	}
	view, ok := cur.overlayView().Delete(id)
	if !ok {
		return cur.failed(), fmt.Errorf("engine: delete rule %d: %w (%d rules live)", id, ErrRuleNotFound, cur.len())
	}
	return e.applyOverlayLocked(cur, view, updater.Op{Kind: updater.OpDelete, ID: id})
}

// failed is the result an update that publishes nothing reports: the
// snapshot it found.
func (s *snapshot) failed() UpdateResult { return UpdateResult{Version: s.version, Rules: s.len()} }
