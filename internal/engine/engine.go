// Package engine unifies every packet-classification backend in this
// repository behind one interface and one serving runtime.
//
// The repository implements many interchangeable classification data
// structures — the learned NeuroCuts trees, the hand-tuned HiCuts /
// HyperCuts / EffiCuts / CutSplit trees, Tuple Space Search, a TCAM model
// and the linear-search reference. Each historically exposed its own Build
// and lookup shape. This package gives them a common face:
//
//   - Classifier is the uniform lookup interface (Classify, ClassifyBatch,
//     Metrics). Adapters in backends.go register every algorithm in a
//     name-keyed registry, so callers select backends by string
//     ("hicuts", "tss", ...) instead of switching over packages.
//   - Engine wraps a Classifier with a serving runtime: batch lookups are
//     sharded across a pool of workers, and rule updates (Insert / Delete)
//     rebuild the structure off-line and swap it in atomically
//     (RCU-style, via atomic.Pointer), so readers are never blocked and
//     every lookup observes one coherent snapshot.
//
// Engine itself satisfies Classifier, so anything that serves a backend
// (internal/server, cmd/classify, the benchmarks) can serve an Engine
// transparently.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// Metrics is the backend-independent cost summary every classifier reports.
// Fields that do not apply to a backend are zero (e.g. Entries for linear
// search equals the rule count, LookupCost for a TCAM is 1).
type Metrics struct {
	// Backend is the registry name of the backend ("hicuts", "tss", ...).
	Backend string
	// Rules is the classifier size (rules, not expanded entries).
	Rules int
	// LookupCost is the worst-case number of sequential steps per lookup:
	// node visits for trees, tuple probes for TSS, rules scanned for linear
	// search, 1 for TCAM.
	LookupCost int
	// MemoryBytes is the modelled memory footprint.
	MemoryBytes int
	// BytesPerRule is MemoryBytes divided by Rules.
	BytesPerRule float64
	// Entries is the number of stored elements (tree rule references,
	// TSS/TCAM entries after range expansion); Entries / Rules is the
	// replication or expansion factor.
	Entries int
	// CompiledBytes is the actual footprint of the compiled flat-array
	// serving form for tree backends (0 for backends without one, or when
	// serving the legacy pointer tree). MemoryBytes stays the paper's
	// modelled cost so figures remain comparable across PRs.
	CompiledBytes int
}

// Classifier is the uniform interface every backend adapter satisfies.
type Classifier interface {
	// Classify returns the highest-priority rule matching p, or ok=false.
	Classify(p rule.Packet) (rule.Rule, bool)
	// ClassifyBatch classifies ps[i] into out[i] for every i. out must be
	// at least as long as ps.
	ClassifyBatch(ps []rule.Packet, out []Result)
	// Metrics summarises the backend's cost profile.
	Metrics() Metrics
}

// snapshot is one immutable (classifier, rule set) generation. Readers load
// it once per operation so a concurrent swap can never tear a lookup. The
// backend identity travels with the snapshot because LoadArtifact can swap
// in a classifier built by a different backend.
type snapshot struct {
	cls     Classifier
	set     *rule.Set
	version uint64
	// backend is the registry name of the backend that produced cls.
	backend string
	// build rebuilds the backend after a rule update. It is nil for engines
	// warm-started from an artifact whose backend is not registered; such
	// engines serve lookups but reject rebuild-path updates (overlay updates
	// still work when the updater is enabled).
	build Builder
	// baseCls is the underlying built classifier. It equals cls except when
	// the online-update subsystem is serving a delta overlay on top of it
	// (then cls is an *overlayClassifier wrapping baseCls).
	baseCls Classifier
	// base is the overlay subsystem's view-derivation base (nil when the
	// updater is disabled). It is replaced on every compaction.
	base *updater.Base
}

// Engine serves a registered backend with sharded batch lookups and
// non-blocking atomic rule updates.
type Engine struct {
	opts Options

	// snap is the current read snapshot (RCU-style: writers build a new
	// snapshot off-line and publish it with a single pointer swap).
	snap atomic.Pointer[snapshot]

	// mu serialises writers; readers never take it.
	mu     sync.Mutex
	nextID int

	shards int

	// cache is the optional sharded flow cache (nil when disabled).
	cache *flowCache

	// Persistent batch workers. Spawning a goroutine per shard per call
	// allocates on every batch; instead the first large batch starts a
	// fixed pool of workers that live for the engine's lifetime and pull
	// work spans off a preallocated channel. workersUp gates the fast path
	// with a single atomic load.
	workersUp atomic.Bool
	workOnce  sync.Once
	work      chan batchTask
	closeOnce sync.Once

	// Online-update subsystem state (see overlay.go). updaterOn and
	// compactThreshold are set once before the engine is shared; journal is
	// guarded by mu; the rest are atomics or owned by the compactor.
	updaterOn        bool
	compactThreshold int
	// artifactPath is the artifact this engine's state derives from (set by
	// NewEngineFromArtifact and LoadArtifact, "" for cold-built engines).
	// SaveArtifact uses it to decide whether a save is a checkpoint of the
	// engine's own pair (rotate the journal) or a side snapshot (leave the
	// journal describing the original start). Guarded by mu.
	artifactPath     string
	journal          *updater.Journal
	compactCh        chan struct{}
	stopCompact      chan struct{}
	compactorDone    chan struct{}
	compactions      atomic.Uint64
	compacting       atomic.Bool
	lastCompactNanos atomic.Int64
	// Compaction failure telemetry: count, latest message (nil after a
	// success) and the time of the latest failure (drives the compactor's
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
	// call, not per shard chunk, so the per-packet serving cost stays one
	// uncontended atomic add per call.
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

	// publishHook, when set, runs after every post-construction snapshot
	// publish (insert, delete, overlay apply, compaction, artifact load)
	// with the published version. The run-to-completion dataplane
	// (internal/dataplane) registers one to ship epoch-tagged update
	// messages to its per-core loops; see SetPublishHook.
	publishHook atomic.Pointer[func(version uint64)]

	// closers run at the start of Close, before the compactor stops and the
	// journal closes, so subsystems serving this engine's snapshots (the
	// dataplane's classify loops) drain and exit while the snapshot state is
	// still fully alive. Guarded by closersMu.
	closersMu sync.Mutex
	closers   []func()
}

// SetPublishHook registers fn to run after every post-construction snapshot
// publish, with the new snapshot's version. At most one hook is supported;
// registering replaces the previous one, and a nil fn unregisters. The hook
// runs on the publishing goroutine (writer lock held for updates, the
// compactor goroutine for background compactions), so it must be fast and
// must never call back into the engine's write path.
func (e *Engine) SetPublishHook(fn func(version uint64)) {
	if fn == nil {
		e.publishHook.Store(nil)
		return
	}
	e.publishHook.Store(&fn)
}

// AddCloser registers fn to run at the start of Close, before the engine
// tears down its own background state (compactor, journal, batch workers).
// Subsystems that serve the engine's snapshots from their own goroutines —
// the dataplane's per-core loops — register their drain here so Close
// ordering is: drain serving loops first, then stop the update machinery.
// Closers run in reverse registration order and must be idempotent.
func (e *Engine) AddCloser(fn func()) {
	e.closersMu.Lock()
	e.closers = append(e.closers, fn)
	e.closersMu.Unlock()
}

// publishSnap publishes a new snapshot and notifies the publish hook. Every
// post-construction snapshot swap goes through here so attached consumers
// (the dataplane) observe every generation exactly once.
func (e *Engine) publishSnap(ns *snapshot) {
	e.snap.Store(ns)
	if e.tel != nil {
		// Publishing is the cold path, so re-interning the backend name
		// (a mutexed map probe) is fine; it keeps the flight recorder's
		// backend attribution correct across artifact loads.
		e.telBackendID.Store(e.tel.Intern(ns.backend))
	}
	if fn := e.publishHook.Load(); fn != nil {
		(*fn)(ns.version)
	}
}

// View is a pinned read handle on one engine snapshot: an immutable
// (classifier, rule set) generation. The dataplane's per-core loops hold one
// View each and classify against it lock-free and load-free — no atomic
// snapshot load per packet or per batch — reloading only when an
// epoch-tagged update message tells them a newer generation exists. A View
// stays valid (and consistent) indefinitely; holding an old one merely
// serves an older rule-set generation, the usual RCU contract.
type View struct {
	s *snapshot
}

// CurrentView returns a View pinned to the engine's current snapshot.
func (e *Engine) CurrentView() View { return View{s: e.snap.Load()} }

// Version returns the pinned snapshot's generation counter.
func (v View) Version() uint64 { return v.s.version }

// Backend returns the registry name of the backend serving the pinned
// snapshot.
func (v View) Backend() string { return v.s.backend }

// Metrics reports the pinned snapshot's backend cost metrics
// (allocation-free; backends serve it from a cached value or a stack
// struct).
func (v View) Metrics() Metrics { return v.s.cls.Metrics() }

// Classify looks one packet up in the pinned snapshot. It bypasses the
// engine's shared flow cache: dataplane loops keep their own per-core
// caches, so consulting the shared one would reintroduce the very lock the
// per-core design removes.
func (v View) Classify(p rule.Packet) (rule.Rule, bool) { return v.s.cls.Classify(p) }

// ClassifyBatch classifies ps[i] into out[i] against the pinned snapshot.
// Like Classify it bypasses the engine's shared flow cache and worker pool —
// dataplane loops shard and cache themselves — but the backend sees the
// whole span at once, so compiled tree snapshots serve it through the
// frontier walk instead of one dependent-load chain per packet. out must be at least as long as ps.
func (v View) ClassifyBatch(ps []rule.Packet, out []Result) { v.s.cls.ClassifyBatch(ps, out) }

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
		Rules:          s.set.Len(),
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

// batchTask is one span of a batch dispatched to a shard worker. The struct
// is sent by value over a buffered channel, so dispatch does not allocate.
type batchTask struct {
	snap *snapshot
	ps   []rule.Packet
	out  []Result
	wg   *sync.WaitGroup
}

// wgPool recycles the per-call WaitGroups of sharded batches so the fan-out
// path stays allocation-free in steady state.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// minShardBatch is the smallest per-shard slice worth dispatching to a
// worker; batches below 2*minShardBatch run inline on the caller's
// goroutine.
const minShardBatch = 64

// NewEngine builds the named backend over the rule set and wraps it in an
// Engine. Shard count comes from opts.Shards (0 selects GOMAXPROCS).
func NewEngine(name string, set *rule.Set, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	entry, err := lookupBackend(name)
	if err != nil {
		return nil, err
	}
	cls, err := entry.build(set, opts)
	if err != nil {
		return nil, err
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	e := &Engine{opts: opts, shards: shards}
	e.cache = newFlowCache(opts.FlowCacheEntries, opts.FlowCacheShards)
	e.snap.Store(&snapshot{cls: cls, set: set, version: 1, backend: entry.name, build: entry.build, baseCls: cls})
	for _, r := range set.Rules() {
		if r.ID >= e.nextID {
			e.nextID = r.ID + 1
		}
	}
	if err := e.initUpdater(); err != nil {
		return nil, err
	}
	e.initTelemetry()
	return e, nil
}

// Backend returns the registry name of the backend serving the current
// snapshot.
func (e *Engine) Backend() string { return e.snap.Load().backend }

// Version returns the current snapshot's generation counter; it increases by
// one per successful Insert or Delete.
func (e *Engine) Version() uint64 { return e.snap.Load().version }

// Rules returns the current snapshot's rule set. The returned set is
// immutable: updates replace it rather than mutating it.
func (e *Engine) Rules() *rule.Set { return e.snap.Load().set }

// Classify looks up one packet in the current snapshot, consulting the flow
// cache first when one is configured. The path performs zero heap
// allocations for allocation-free backends (linear, tss).
func (e *Engine) Classify(p rule.Packet) (rule.Rule, bool) {
	e.lookups.Add(1)
	s := e.snap.Load()
	if e.tel == nil {
		return e.classifyOne(s, p)
	}
	return e.classifyOneTimed(s, p)
}

// classifyOne is the cache-aware single-packet path against a pinned
// snapshot.
func (e *Engine) classifyOne(s *snapshot, p rule.Packet) (rule.Rule, bool) {
	if e.cache != nil {
		if r, ok, hit := e.cache.get(p, s.version); hit {
			return r, ok
		}
	}
	r, ok := s.cls.Classify(p)
	if e.cache != nil {
		e.cache.put(p, s.version, r, ok)
	}
	return r, ok
}

// missScratch holds one chunk's cache misses so they can be classified as a
// single backend batch (and so reach the compiled backends' frontier walk)
// instead of one packet at a time.
type missScratch struct {
	ps  []rule.Packet
	out []Result
	pos []int32
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
		ms.out = make([]Result, n)
		ms.pos = make([]int32, n)
	}
	return ms
}

func putMissScratch(ms *missScratch) {
	select {
	case missScratches <- ms:
	default:
	}
}

// classifyChunk classifies one span of a batch against a pinned snapshot,
// through the flow cache when one is configured. With a cache, hits are
// served in place and the misses are gathered into one backend batch — the
// backend sees a dense span either way, so compiled classifiers run their
// frontier walk even behind the cache.
func (e *Engine) classifyChunk(s *snapshot, ps []rule.Packet, out []Result) {
	if e.cache == nil {
		s.cls.ClassifyBatch(ps, out)
		return
	}
	ms := getMissScratch(len(ps))
	miss := 0
	for i, p := range ps {
		if r, ok, hit := e.cache.get(p, s.version); hit {
			out[i].Rule, out[i].OK = r, ok
			continue
		}
		ms.ps[miss] = p
		ms.pos[miss] = int32(i)
		miss++
	}
	if miss > 0 {
		s.cls.ClassifyBatch(ms.ps[:miss], ms.out[:miss])
		for j := 0; j < miss; j++ {
			out[ms.pos[j]] = ms.out[j]
			e.cache.put(ms.ps[j], s.version, ms.out[j].Rule, ms.out[j].OK)
		}
	}
	putMissScratch(ms)
}

// Metrics reports the current snapshot's metrics.
func (e *Engine) Metrics() Metrics { return e.snap.Load().cls.Metrics() }

// ClassifyBatch classifies every packet of the batch against one coherent
// snapshot, splitting the batch across the engine's persistent worker pool.
// Small batches run inline: fanning out costs more than it saves below
// roughly a hundred packets. The fan-out path reuses pooled WaitGroups and
// sends fixed-size task structs over a preallocated channel, so steady-state
// dispatch performs no heap allocations.
func (e *Engine) ClassifyBatch(ps []rule.Packet, out []Result) {
	snap := e.snap.Load()
	n := len(ps)
	e.batches.Add(1)
	e.batchPackets.Add(uint64(n))
	if e.shards <= 1 || n < 2*minShardBatch {
		e.classifyChunkTimed(snap, ps, out)
		return
	}
	if !e.workersUp.Load() {
		e.startWorkers()
		if !e.workersUp.Load() {
			// The engine was closed before its first large batch; degrade
			// to the inline path instead of touching the dead worker pool.
			e.classifyChunkTimed(snap, ps, out)
			return
		}
	}
	shards := e.shards
	if max := (n + minShardBatch - 1) / minShardBatch; shards > max {
		shards = max
	}
	chunk := (n + shards - 1) / shards
	wg := wgPool.Get().(*sync.WaitGroup)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		e.work <- batchTask{snap: snap, ps: ps[lo:hi], out: out[lo:hi], wg: wg}
	}
	wg.Wait()
	wgPool.Put(wg)
}

// startWorkers spawns the engine's persistent shard workers exactly once.
func (e *Engine) startWorkers() {
	e.workOnce.Do(func() {
		// Buffer one full fan-out's worth of tasks per worker so dispatch
		// rarely blocks even with several concurrent batch callers.
		e.work = make(chan batchTask, 4*e.shards)
		for i := 0; i < e.shards; i++ {
			go func() {
				for t := range e.work {
					e.classifyChunkTimed(t.snap, t.ps, t.out)
					t.wg.Done()
				}
			}()
		}
		e.workersUp.Store(true)
	})
}

// Close releases the engine's worker goroutines, stops the background
// compactor and closes the update journal. It is safe to call more than
// once; the engine must not be used for batch classification after Close.
// Engines that never saw a large batch hold no batch goroutines, so Close
// is optional for short-lived engines without the updater.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		// Attached serving loops (the dataplane) drain and exit first, while
		// the snapshot, compactor and journal are all still alive — a loop
		// mid-batch must never observe a half-torn-down engine.
		e.closersMu.Lock()
		closers := e.closers
		e.closers = nil
		e.closersMu.Unlock()
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		e.closeUpdater()
		// Consuming the Once first means a concurrent in-flight start
		// finishes before we observe workersUp, and no future call can
		// respawn workers.
		e.workOnce.Do(func() {})
		if e.workersUp.Load() {
			close(e.work)
		}
	})
}

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

// Insert adds a rule at priority position pos and atomically swaps the new
// snapshot in; concurrent readers keep classifying against the old snapshot
// until the swap. Positions outside [0, Rules()] are clamped to the nearest
// bound (pos<0 inserts at the top, pos>len appends), so Insert never fails
// on position alone. With the online-update subsystem enabled the rule
// lands in the delta overlay (no backend rebuild); otherwise the backend is
// rebuilt off-line.
func (e *Engine) Insert(pos int, r rule.Rule) (UpdateResult, error) {
	if e.tel == nil {
		res, err := e.doInsert(pos, r)
		e.countUpdate(err)
		return res, err
	}
	t0 := time.Now()
	res, err := e.doInsert(pos, r)
	e.tel.UpdateInsert.RecordNanos(0, time.Since(t0).Nanoseconds())
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
	cur := e.snap.Load()
	// Clamp before journaling so replay applies the position actually used.
	pos = max(0, min(pos, cur.set.Len()))
	r.ID = e.nextID
	if e.updaterOn && cur.base != nil {
		next := cur.set.CloneInsert(pos, r)
		res, err := e.applyOverlayLocked(cur, next, updater.Op{Kind: updater.OpInsert, Pos: pos, ID: r.ID, Rule: r})
		if err == nil {
			e.nextID++
		}
		return res, err
	}
	if cur.build == nil {
		return UpdateResult{Version: cur.version, Rules: cur.set.Len()},
			fmt.Errorf("engine: backend %q is not registered; updates unavailable on this artifact-served engine", cur.backend)
	}
	next := cur.set.CloneInsert(pos, r)
	cls, err := cur.build(next, e.opts)
	if err != nil {
		return UpdateResult{Version: cur.version, Rules: cur.set.Len()},
			fmt.Errorf("engine: rebuild after insert of rule %d: %w", r.ID, err)
	}
	e.nextID++
	ns := &snapshot{cls: cls, set: next, version: cur.version + 1, backend: cur.backend, build: cur.build, baseCls: cls}
	e.publishSnap(ns)
	return UpdateResult{ID: r.ID, Version: ns.version, Rules: next.Len()}, nil
}

// Delete removes the rule with the given ID and swaps the new snapshot in.
// Deleting an ID with no live rule (never inserted, or already deleted)
// fails with an error wrapping ErrRuleNotFound that names the ID. With the
// online-update subsystem enabled the delete becomes a tombstone (no
// backend rebuild); otherwise the backend is rebuilt off-line.
func (e *Engine) Delete(id int) (UpdateResult, error) {
	if e.tel == nil {
		res, err := e.doDelete(id)
		e.countUpdate(err)
		return res, err
	}
	t0 := time.Now()
	res, err := e.doDelete(id)
	e.tel.UpdateDelete.RecordNanos(0, time.Since(t0).Nanoseconds())
	e.countUpdate(err)
	return res, err
}

// indexOfID returns the index in s.set of the live rule with the given ID, or
// -1. With the updater on it resolves through the ID index the view or base
// already holds; without one it scans the list.
func (s *snapshot) indexOfID(id int) int {
	if oc, ok := s.cls.(*overlayClassifier); ok {
		return oc.view.IndexOf(id)
	}
	if s.base != nil {
		return s.base.IndexOf(id) // no pending updates: the base's set is s.set
	}
	for i, r := range s.set.Rules() {
		if r.ID == id {
			return i
		}
	}
	return -1
}

func (e *Engine) doDelete(id int) (UpdateResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.snap.Load()
	idx := cur.indexOfID(id)
	if idx < 0 {
		return UpdateResult{Version: cur.version, Rules: cur.set.Len()},
			fmt.Errorf("engine: delete rule %d: %w (%d rules live)", id, ErrRuleNotFound, cur.set.Len())
	}
	if e.updaterOn && cur.base != nil {
		return e.applyOverlayLocked(cur, cur.set.CloneRemove(idx), updater.Op{Kind: updater.OpDelete, ID: id})
	}
	if cur.build == nil {
		return UpdateResult{Version: cur.version, Rules: cur.set.Len()},
			fmt.Errorf("engine: backend %q is not registered; updates unavailable on this artifact-served engine", cur.backend)
	}
	next := cur.set.CloneRemove(idx)
	cls, err := cur.build(next, e.opts)
	if err != nil {
		return UpdateResult{Version: cur.version, Rules: cur.set.Len()},
			fmt.Errorf("engine: rebuild after delete of rule %d: %w", id, err)
	}
	ns := &snapshot{cls: cls, set: next, version: cur.version + 1, backend: cur.backend, build: cur.build, baseCls: cls}
	e.publishSnap(ns)
	return UpdateResult{ID: id, Version: ns.version, Rules: next.Len()}, nil
}
