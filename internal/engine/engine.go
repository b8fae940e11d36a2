// Package engine unifies every packet-classification backend in this
// repository behind one interface and one serving runtime.
//
// The served classification data structures are the learned NeuroCuts
// trees, the paper's hand-tuned baselines (HiCuts / HyperCuts / EffiCuts /
// CutSplit) and the linear-search reference. Each builder has its own Build
// shape. This package gives them a common face:
//
//   - Classifier is the uniform lookup interface (Lookup, LookupBatch,
//     Metrics): a lookup answers with the winner's position in the rule
//     list, not the rule. backends.go registers every algorithm in a
//     name-keyed registry, so callers select backends by string ("hicuts",
//     "linear", ...) instead of switching over packages.
//   - Engine wraps a Classifier with a serving runtime: lookups run to
//     completion on the caller behind an optional lock-free flow cache,
//     batches whose misses are worth a handoff are split across persistent
//     workers, and rule updates (Insert / Delete) land in a delta overlay
//     over the built structure (overlay.go) that a background compactor
//     folds into a rebuild off the critical path; every new generation is
//     swapped in atomically (RCU-style, via atomic.Pointer), so readers are
//     never blocked and every lookup observes one coherent snapshot.
//
// Positions stay positions through every layer below the Engine's edge
// (Engine.Classify/ClassifyBatch and View): only there is the winning rule
// copied, once, into the caller's Result.
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
// Fields that do not apply to a backend are zero (e.g. CompiledBytes for
// linear search).
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
	// serving form for tree backends (0 for backends without one).
	// MemoryBytes stays the paper's modelled cost so figures remain
	// comparable across PRs.
	CompiledBytes int
}

// Classifier is the uniform interface every backend satisfies. It
// answers with positions in the rule list it serves (the snapshot's), so no
// rule is copied until the Engine's edge materializes a Result.
type Classifier interface {
	// Lookup returns the position of the highest-priority rule matching p,
	// or -1.
	Lookup(p rule.Packet) int32
	// LookupBatch writes Lookup(ps[i]) to pos[i] for every i. pos must be
	// at least as long as ps.
	LookupBatch(ps []rule.Packet, pos []int32)
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
	// rulesGen tags flow-cache entries. It advances with every snapshot
	// whose rule list differs from its predecessor's and stays put across a
	// compaction, which republishes the same list under a new version — so
	// cached rule positions stay valid exactly as long as they are right.
	rulesGen uint64
	// backend is the registry name of the backend that produced cls.
	backend string
	// build rebuilds the backend when a compaction folds the overlay in. It
	// is nil for engines warm-started from an artifact whose backend is not
	// registered; such engines serve lookups and take updates, but their
	// overlay can never be folded (compactOnce records the failure).
	build Builder
	// baseCls is the underlying built classifier. It equals cls except when
	// a delta overlay is being served on top of it (then cls is an
	// *overlayClassifier wrapping baseCls).
	baseCls Classifier
	// base is the overlay's view-derivation base. It is nil until the first
	// update needs it (baseSnapLocked) and is replaced on every compaction.
	base *updater.Base
}

// Engine serves a registered backend with cached, work-gated batch lookups
// and non-blocking atomic rule updates.
type Engine struct {
	opts Options

	// snap is the current read snapshot (RCU-style: writers build a new
	// snapshot off-line and publish it with a single pointer swap).
	snap atomic.Pointer[snapshot]

	// mu serialises writers; readers never take it.
	mu     sync.Mutex
	nextID int

	shards int

	// cache is the optional flow cache (nil when disabled).
	cache *FlowCache

	// Persistent batch workers. Spawning a goroutine per span per call
	// allocates on every batch; instead the first batch worth a handoff
	// starts shards-1 workers (the caller classifies one span itself) that
	// live for the engine's lifetime and pull spans off a preallocated
	// channel. workersUp gates the fast path with a single atomic load;
	// handoffs counts the spans sent (see EngineStats).
	workersUp atomic.Bool
	workOnce  sync.Once
	work      chan batchTask
	handoffs  atomic.Uint64
	closeOnce sync.Once

	// Write-path state (see overlay.go). compactThreshold is set once before
	// the engine is shared; journal, closed and the three compactor channels
	// (nil until the first update starts the compactor) are guarded by mu;
	// the rest are atomics.
	compactThreshold int
	closed           bool
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

// Classify looks one packet up in the pinned snapshot, bypassing the
// engine's own flow cache: a dataplane loop brings its own (ClassifyScatter).
func (v View) Classify(p rule.Packet) (rule.Rule, bool) { return v.s.rule(v.s.cls.Lookup(p)) }

// ClassifyBatch classifies ps[i] into out[i] against the pinned snapshot,
// uncached and on the caller. The backend sees the whole span at once, so
// compiled tree snapshots serve it through the frontier walk instead of one
// dependent-load chain per packet. out must be at least as long as ps.
func (v View) ClassifyBatch(ps []rule.Packet, out []Result) { v.s.classifyUncached(ps, out, nil) }

// ClassifyScatter classifies ps against the pinned snapshot through the
// caller's own flow cache c (nil: uncached), writing ps[i]'s result to
// out[pos[i]]. It is a dataplane loop's whole lookup: it runs to completion
// on the caller, never touches the engine's cache or workers, and returns
// how many packets the cache did not answer.
func (v View) ClassifyScatter(c *FlowCache, ps []rule.Packet, pos []int32, out []Result) (misses int) {
	return v.s.classifyCached(c, ps, pos, out, nil)
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
	// Handoffs is the number of batch spans handed to a worker goroutine;
	// batches whose misses are not worth one run on the caller alone.
	Handoffs uint64
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
		Handoffs:       e.handoffs.Load(),
		Updater:        e.UpdaterStats(),
	}
}

// batchTask is one span of a batch handed to a worker. The struct is sent
// by value over a buffered channel, so the handoff does not allocate.
type batchTask struct {
	snap *snapshot
	ps   []rule.Packet
	pos  []int32
	out  []Result // nil: the caller materializes the positions itself
	wg   *sync.WaitGroup
}

// wgPool recycles the per-call WaitGroups of fanned-out batches so the
// fan-out path stays allocation-free in steady state.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// handoffWork is the least estimated work — packets the backend must answer
// times its Metrics().LookupCost (node visits or rules scanned)
// — each span must carry before splitting a batch across goroutines beats
// running it on the caller. A handoff costs a channel send, a goroutine
// wake-up and a WaitGroup barrier, and every result a worker writes is a
// cache line the caller then pulls across cores. Measured on acl1/10k
// CutSplit (LookupCost 12, ~13 ns a unit) with two shards, fan-out loses
// below ~1 400 packets and wins 1.45x at 4 096; fanning out the 2 200 misses
// of a cached 16 384-packet batch still loses. This value picks the faster
// side in every cell of that table (ROADMAP.md, "Collapse the duplicates"
// (a)). The estimate is a property of the input and the table, not a packet
// count: 256 packets of any tree backend run on the caller, 256 packets of
// a 10k-rule linear scan do not.
const handoffWork = 16384

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
	e.cache = NewFlowCache(opts.FlowCacheEntries)
	e.snap.Store(&snapshot{cls: cls, set: set, version: 1, rulesGen: 1, backend: entry.name, build: entry.build, baseCls: cls})
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
// allocations for the backends alloc_test.go pins: linear and the compiled
// tree backends, with or without a pending overlay.
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
	if c := e.cache; c == nil {
		idx = s.cls.Lookup(p)
	} else if idx, hit = c.Get(p, s.rulesGen); hit {
		c.Count(1, 0)
	} else {
		c.Count(0, 1)
		idx = s.cls.Lookup(p)
		c.Put(p, s.rulesGen, idx)
	}
	r, ok = s.rule(idx)
	return r, ok, hit
}

// rule materializes position idx of the snapshot's rule list (-1: no match)
// — the one copy of the winning rule a single lookup makes.
func (s *snapshot) rule(idx int32) (rule.Rule, bool) {
	if idx < 0 {
		return rule.Rule{}, false
	}
	return s.set.Rule(int(idx)), true
}

// put materializes position idx of rules, a snapshot's list, into *r — the
// one copy of the winning rule an answered packet of a batch costs.
func put(r *Result, rules []rule.Rule, idx int32) {
	if idx < 0 {
		*r = Result{}
		return
	}
	r.Rule, r.OK = rules[idx], true
}

// missScratch holds one batch's cache misses so they can be classified as a
// single backend batch (and so reach the compiled backends' frontier walk)
// instead of one packet at a time; an uncached batch is all misses and uses
// only idx, for its positions.
type missScratch struct {
	ps  []rule.Packet
	pos []int32 // where each miss's result goes
	idx []int32 // the cache's answer per packet, then each miss's position
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
	}
	return ms
}

func putMissScratch(ms *missScratch) {
	select {
	case missScratches <- ms:
	default:
	}
}

// classifyCached serves ps through the flow cache c and returns the number
// of misses. A hit is one slot read and one copy out of the rule list; the
// misses are gathered so the backend sees one dense span — compiled
// classifiers run their frontier walk even behind the cache — which fan,
// when set, may split across its workers. Each miss's position fills the
// cache as it is, and its rule is copied once, into out. ps[i]'s result
// lands in out[pos[i]], or out[i] when pos is nil. A nil c makes every
// packet a miss: an uncached dataplane loop still needs the scatter.
func (s *snapshot) classifyCached(c *FlowCache, ps []rule.Packet, pos []int32, out []Result, fan *Engine) int {
	ms := getMissScratch(len(ps))
	rules := s.set.Rules()
	idx := ms.idx[:len(ps)]
	if c != nil {
		c.GetBatch(ps, s.rulesGen, idx)
	} else {
		for i := range idx {
			idx[i] = FlowMiss
		}
	}
	miss := 0
	for i := range ps {
		o := int32(i)
		if pos != nil {
			o = pos[i]
		}
		if ix := idx[i]; ix != FlowMiss {
			put(&out[o], rules, ix) // a hit, or a cached "no rule matches"
		} else {
			ms.ps[miss], ms.pos[miss] = ps[i], o
			miss++
		}
	}
	if miss > 0 {
		// The probe answers are all read: the front of idx takes the misses'.
		mps, midx := ms.ps[:miss], idx[:miss]
		if fan != nil {
			fan.classifySpan(s, mps, midx, nil)
		} else {
			s.cls.LookupBatch(mps, midx)
		}
		for j, ix := range midx {
			put(&out[ms.pos[j]], rules, ix)
			if c != nil {
				c.Put(mps[j], s.rulesGen, ix)
			}
		}
	}
	if c != nil {
		c.Count(len(ps)-miss, miss)
	}
	putMissScratch(ms)
	return miss
}

// Metrics reports the current snapshot's metrics.
func (e *Engine) Metrics() Metrics { return e.snap.Load().cls.Metrics() }

// ClassifyBatch classifies every packet of the batch against one coherent
// snapshot, running to completion on the caller: the flow cache (when
// configured) is probed for the whole batch in line, and only the packets
// it cannot answer reach the backend — split across the engine's workers
// when, and only when, they are worth a handoff (see classifySpan).
// Steady-state the path performs no heap allocations.
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
	if e.cache == nil {
		s.classifyUncached(ps, out, e)
		return
	}
	s.classifyCached(e.cache, ps, nil, out, e)
}

// classifyUncached answers a dense span with no cache in front: positions
// into a recycled scratch, then one copy per packet into out. fan, when set,
// may split the span across its workers.
func (s *snapshot) classifyUncached(ps []rule.Packet, out []Result, fan *Engine) {
	ms := getMissScratch(len(ps))
	if pos := ms.idx[:len(ps)]; fan != nil {
		fan.classifySpan(s, ps, pos, out)
	} else {
		s.lookupSpan(ps, pos, out)
	}
	putMissScratch(ms)
}

// lookupSpan looks ps up into pos and materializes the answers into out,
// unless out is nil.
func (s *snapshot) lookupSpan(ps []rule.Packet, pos []int32, out []Result) {
	s.cls.LookupBatch(ps, pos)
	rules := s.set.Rules()
	for i := range out {
		put(&out[i], rules, pos[i])
	}
}

// classifySpan puts a dense span no cache could answer to the backend,
// positions into pos and, unless out is nil, rules into out. It fans out
// only when each span carries at least handoffWork of estimated work, and
// then the caller classifies the first span itself and each worker
// materializes its own: Shards: n means n goroutines busy and n-1 handoffs.
// Below the gate — every Shards: 1 engine, every small or mostly-cached
// batch — it is one backend call in line.
func (e *Engine) classifySpan(s *snapshot, ps []rule.Packet, pos []int32, out []Result) {
	n := len(ps)
	spans := 1
	if e.shards > 1 {
		spans = min(e.shards, n, n*s.cls.Metrics().LookupCost/handoffWork)
	}
	if spans < 2 || !e.workersReady() {
		s.lookupSpan(ps, pos, out)
		return
	}
	chunk := (n + spans - 1) / spans
	wg := wgPool.Get().(*sync.WaitGroup)
	handed := uint64(0)
	for lo := chunk; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		t := batchTask{snap: s, ps: ps[lo:hi], pos: pos[lo:hi], wg: wg}
		if out != nil {
			t.out = out[lo:hi]
		}
		wg.Add(1)
		e.work <- t
		handed++
	}
	e.handoffs.Add(handed)
	if out != nil {
		out = out[:chunk]
	}
	s.lookupSpan(ps[:chunk], pos[:chunk], out)
	wg.Wait()
	wgPool.Put(wg)
}

// workersReady starts the engine's shards-1 persistent workers on first
// use and reports whether they are up; false means the engine was closed
// first, and the caller classifies in line instead of touching a dead pool.
func (e *Engine) workersReady() bool {
	if e.workersUp.Load() {
		return true
	}
	e.workOnce.Do(func() {
		// Buffer a few fan-outs' worth of spans per worker so a handoff
		// rarely blocks even with several concurrent batch callers.
		e.work = make(chan batchTask, 4*e.shards)
		for i := 1; i < e.shards; i++ {
			go func() {
				for t := range e.work {
					t.snap.lookupSpan(t.ps, t.pos, t.out)
					t.wg.Done()
				}
			}()
		}
		e.workersUp.Store(true)
	})
	return e.workersUp.Load()
}

// Close releases the engine's worker goroutines, stops the background
// compactor and closes the update journal. It is safe to call more than
// once; the engine must not be used for batch classification after Close.
// An engine that never handed a span off and never took an update holds no
// goroutine, so Close is optional for short-lived read-only engines.
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
// on position alone. The rule lands in the delta overlay; the backend is
// rebuilt only by a later compaction, off the critical path.
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
	cur, err := e.writeSnapLocked()
	if err != nil {
		return UpdateResult{Version: cur.version, Rules: cur.set.Len()}, err
	}
	// Clamp before journaling so replay applies the position actually used.
	pos = max(0, min(pos, cur.set.Len()))
	r.ID = e.nextID
	res, err := e.applyOverlayLocked(cur, cur.set.CloneInsert(pos, r), updater.Op{Kind: updater.OpInsert, Pos: pos, ID: r.ID, Rule: r})
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
// -1, through the ID index the view or the base holds. s must have a base.
func (s *snapshot) indexOfID(id int) int {
	if oc, ok := s.cls.(*overlayClassifier); ok {
		return oc.view.IndexOf(id)
	}
	return s.base.IndexOf(id) // no pending updates: the base's set is s.set
}

func (e *Engine) doDelete(id int) (UpdateResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, err := e.writeSnapLocked()
	if err != nil {
		return UpdateResult{Version: cur.version, Rules: cur.set.Len()}, err
	}
	idx := cur.indexOfID(id)
	if idx < 0 {
		return UpdateResult{Version: cur.version, Rules: cur.set.Len()},
			fmt.Errorf("engine: delete rule %d: %w (%d rules live)", id, ErrRuleNotFound, cur.set.Len())
	}
	return e.applyOverlayLocked(cur, cur.set.CloneRemove(idx), updater.Op{Kind: updater.OpDelete, ID: id})
}
