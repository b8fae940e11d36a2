// Package dataplane implements a run-to-completion serving path: long-lived
// per-core classify loops, each owning one slice of the serving state
// outright, fed by bounded single-producer/single-consumer rings behind a
// flow-hash demux.
//
// The engine (internal/engine) runs a lookup to completion on whichever
// goroutine called it: that scales with the callers, but they all share one
// flow cache and load the snapshot pointer per call. This package is the
// other deployment shape — dedicated cores. Ingress hashes each packet's
// 5-tuple (engine.HashPacket — the same flow identity the engine uses) and
// routes it to the core that owns the flow; that core's loop classifies the
// span against a View it pinned once and re-pins only when told to, through
// a flow cache only it touches (the engine's own engine.FlowCache type, one
// instance per core, so its atomics are never contended), writes results
// straight into the caller's output slice, and signals a per-batch
// completion vector. Between the demux handoff and the completion signal
// there are no locks, no shared cache lines, and no snapshot loads.
//
// Rule updates ride the same rings as traffic: when the engine publishes a
// new snapshot generation, the publish hook enqueues an epoch message on
// every core's ring under the same ingress mutex that serialises batch
// submission. Per-ring FIFO order then gives the only update guarantee that
// matters: a batch submitted after an update returned is classified entirely
// against the new generation, and a single flow (pinned to one core) never
// observes generations out of order. Cache entries carry the rules
// generation of the View that filled them, so stale entries expire by
// missing — no invalidation pass, no stop-the-world.
//
// The dataplane is opt-in (classifier.WithDataplane, classifyd -cores);
// calling the engine directly remains the default. See docs/ARCHITECTURE.md for where
// this sits in the full picture.
package dataplane

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
)

// Config parameterises Attach.
type Config struct {
	// Cores is the number of classify loops (and rings, and per-core
	// caches). 0 means runtime.GOMAXPROCS(0).
	Cores int
	// RingSize is each core's ring capacity in items; 0 means
	// defaultRingSize.
	RingSize int
	// CacheEntries is the per-core flow cache size in entries; 0 disables
	// the per-core caches. Callers moving from the engine's shared cache
	// should disable that cache (engine.Options.FlowCacheEntries = 0) and
	// put the budget here instead — with the dataplane in front the engine
	// cache would never be consulted, only allocated.
	CacheEntries int
}

// maxCores bounds Config.Cores. The demux stage stages core indexes as
// uint16, and a dataplane beyond a few thousand loops is a configuration
// error, not a deployment.
const maxCores = 1 << 12

// Dataplane fronts an Engine with per-core run-to-completion loops. It
// implements the same serving surface the engine exposes to
// internal/server (Classify, ClassifyBatch, Insert, Delete, artifact
// save/load, updater stats), so a server can be pointed at either
// interchangeably; control-plane calls pass through to the engine, data-
// plane calls route through the rings.
type Dataplane struct {
	eng   *engine.Engine
	loops []*loop
	cores int

	// ingressMu serialises everything that produces into the rings: batch
	// submission (the demux stage) and epoch publication (the engine's
	// publish hook). Holding one mutex across all pushes is what lets each
	// ring be single-producer — and, because epoch messages take the same
	// mutex, what makes "submitted after the update returned" a total order
	// every ring agrees on.
	ingressMu sync.Mutex
	closed    atomic.Bool

	stop chan struct{}
	wg   sync.WaitGroup

	scratchPool sync.Pool
}

// loop is one core's classify goroutine and everything it owns: its ring,
// its flow cache, and its pinned View of the rule set. Fields below the
// View are the loop's published counters — written only by the loop, read
// by Stats.
type loop struct {
	ring *ring
	// cache is this core's private flow cache (nil: uncached); it also
	// keeps the loop's hit/miss counters.
	cache *engine.FlowCache
	view  engine.View

	// Telemetry wiring, fixed at Attach (nil tel disables all recording).
	// core doubles as the loop's histogram stripe; tableID/backendID are
	// interned flight-recorder labels, backendID refreshed on epoch reloads
	// (an artifact load can change the serving backend). Only the loop
	// goroutine touches backendID after Attach.
	core      int
	tel       *telemetry.Telemetry
	tableID   uint32
	backendID uint32

	batches atomic.Uint64
	packets atomic.Uint64
	epochs  atomic.Uint64
	// parks/wakes are bumped only at park/unpark transitions, never on the
	// pop-and-handle hot path; viewVer mirrors the pinned View's generation
	// (written on epoch reloads) so Stats can report epoch lag without
	// touching the loop's View.
	parks   atomic.Uint64
	wakes   atomic.Uint64
	viewVer atomic.Uint64
}

// completion is a batch's completion vector: a count of outstanding core
// spans, decremented by each loop as it finishes its span. The submitter
// waits for zero instead of rendezvousing on a barrier, so cores that
// finish early are released immediately and the batch costs no mutex or
// channel on the completion edge. Pool-safety note: the finishing loop's
// last touch of the batch is the atomic decrement itself, so once wait
// observes zero the scratch that embeds this completion can be reused.
type completion struct {
	remaining atomic.Int64
}

func (c *completion) arm(n int64)   { c.remaining.Store(n) }
func (c *completion) finish()       { c.remaining.Add(-1) }
func (c *completion) pending() bool { return c.remaining.Load() != 0 }

// waitSpins and parkSpins are the busy-wait budgets before a waiter (a
// batch submitter, a parking loop) stops yielding and blocks properly.
// Spinning only pays when the goroutine being waited on can run on another
// processor; on a single-P runtime every spin merely delays the goroutine
// that would produce the result, so the budgets collapse to near zero.
var waitSpins, parkSpins = func() (int, int) {
	if runtime.GOMAXPROCS(0) <= 1 {
		return 4, 1
	}
	return 1024, 256
}()

// wait spins briefly (a submitted span's service time is typically well
// under a microsecond per packet), then degrades to short sleeps so a
// submitter stuck behind a long span does not burn a core.
func (c *completion) wait() {
	for spins := 0; c.pending(); spins++ {
		if spins < waitSpins {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// batchScratch is the pooled per-submission staging area: packets grouped
// by owning core, their original positions, the per-core histogram used to
// carve spans, and the batch's completion vector. One Get/Put pair per
// ClassifyBatch keeps the steady-state submit path at zero allocations.
type batchScratch struct {
	ps      []rule.Packet // packets, permuted so each core's span is contiguous
	idx     []int32       // idx[i] = original position of ps[i] in the caller's batch
	cores   []uint16      // pass-1 core assignment per original position
	counts  []int32       // per-core packet counts
	offs    []int32       // per-core span start offsets (prefix sums of counts)
	cursors []int32       // per-core scatter cursors for pass 2
	resOne  [1]engine.Result
	done    completion
}

// Attach builds a dataplane over eng and starts its loops. At most one
// dataplane may be attached to an engine (Attach claims the engine's
// publish hook). The dataplane registers itself as an engine closer, so
// eng.Close() tears it down first — loops drain their rings and complete
// in-flight batches while the engine underneath is still fully alive, then
// the engine's own teardown proceeds. Callers that close the engine do not
// need to close the dataplane separately (Close is idempotent).
func Attach(eng *engine.Engine, cfg Config) (*Dataplane, error) {
	cores := cfg.Cores
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	if cores > maxCores {
		return nil, fmt.Errorf("dataplane: %d cores exceeds the maximum of %d", cfg.Cores, maxCores)
	}
	ringSize := cfg.RingSize
	if ringSize <= 0 {
		ringSize = defaultRingSize
	}
	perCoreCache := 0
	if cfg.CacheEntries > 0 {
		// Split the total budget across cores, with a floor so tiny budgets
		// still yield a working cache per core.
		perCoreCache = cfg.CacheEntries / cores
		if perCoreCache < 64 {
			perCoreCache = 64
		}
	}

	d := &Dataplane{
		eng:   eng,
		cores: cores,
		stop:  make(chan struct{}),
	}
	d.scratchPool.New = func() any {
		return &batchScratch{
			counts:  make([]int32, cores),
			offs:    make([]int32, cores),
			cursors: make([]int32, cores),
		}
	}

	view := eng.CurrentView()
	tel := eng.Telemetry()
	tableID, backendID := eng.TelemetrySlowIDs()
	d.loops = make([]*loop, cores)
	for i := range d.loops {
		d.loops[i] = &loop{
			ring:      newRing(ringSize),
			cache:     engine.NewFlowCache(perCoreCache),
			view:      view,
			core:      i,
			tel:       tel,
			tableID:   tableID,
			backendID: backendID,
		}
		d.loops[i].viewVer.Store(view.Version())
	}

	// Order matters here: the publish hook must be live before the loops
	// start so no generation published after this point can be missed, and
	// the closer registration ties our lifetime to the engine's.
	eng.SetPublishHook(d.publishEpoch)
	eng.AddCloser(d.Close)

	for i := range d.loops {
		d.wg.Add(1)
		go d.run(d.loops[i])
	}
	return d, nil
}

// Cores returns the number of classify loops.
func (d *Dataplane) Cores() int { return d.cores }

// Engine returns the engine this dataplane fronts, for control-plane
// surfaces (admin, artifact tooling) that want the engine directly.
func (d *Dataplane) Engine() *engine.Engine { return d.eng }

// scratch checks a staging area out of the pool, sized for n packets.
func (d *Dataplane) scratch(n int) *batchScratch {
	sc := d.scratchPool.Get().(*batchScratch)
	if cap(sc.ps) < n {
		sc.ps = make([]rule.Packet, n)
		sc.idx = make([]int32, n)
		sc.cores = make([]uint16, n)
	}
	sc.ps = sc.ps[:n]
	sc.idx = sc.idx[:n]
	sc.cores = sc.cores[:n]
	return sc
}

func (d *Dataplane) release(sc *batchScratch) { d.scratchPool.Put(sc) }

// Classify routes a single packet through its owning core's loop, so even
// one-off lookups get the per-core cache and generation ordering of the
// flow's home core.
func (d *Dataplane) Classify(p rule.Packet) (rule.Rule, bool) {
	sc := d.scratch(1)
	sc.ps[0] = p
	sc.idx[0] = 0
	sc.resOne[0] = engine.Result{}
	sc.done.arm(1)

	core := coreOf(p, d.cores)
	it := item{kind: itemBatch, ps: sc.ps[:1], idx: sc.idx[:1], out: sc.resOne[:], done: &sc.done}

	d.ingressMu.Lock()
	if d.closed.Load() {
		d.ingressMu.Unlock()
		d.release(sc)
		r, ok := d.eng.CurrentView().Classify(p)
		return r, ok
	}
	for !d.loops[core].ring.push(it) {
		runtime.Gosched()
	}
	d.ingressMu.Unlock()

	sc.done.wait()
	r, ok := sc.resOne[0].Rule, sc.resOne[0].OK
	d.release(sc)
	return r, ok
}

// ClassifyBatch classifies ps into out (out must be at least as long as
// ps), demuxing the batch into per-core spans and waiting on the batch's
// completion vector. The steady-state path allocates nothing: staging
// buffers are pooled, spans are slices into them, and results are written
// directly into out at each packet's original position.
func (d *Dataplane) ClassifyBatch(ps []rule.Packet, out []engine.Result) {
	n := len(ps)
	if n == 0 {
		return
	}
	if len(out) < n {
		panic("dataplane: ClassifyBatch out slice shorter than packet slice")
	}

	sc := d.scratch(n)

	// Pass 1: histogram the batch by owning core, remembering each packet's
	// core so pass 2 does not rehash.
	counts := sc.counts[:d.cores]
	for i := range counts {
		counts[i] = 0
	}
	for i := range ps {
		c := coreOf(ps[i], d.cores)
		sc.cores[i] = uint16(c)
		counts[c]++
	}

	// Prefix sums carve one contiguous span per core out of the staging
	// buffer; the cursors are the running scatter positions.
	off := int32(0)
	spans := int64(0)
	for c := range counts {
		sc.offs[c] = off
		sc.cursors[c] = off
		off += counts[c]
		if counts[c] > 0 {
			spans++
		}
	}

	// Pass 2: scatter packets into their core's span, preserving submission
	// order within each core (the cursors only move forward).
	for i := range ps {
		c := sc.cores[i]
		pos := sc.cursors[c]
		sc.cursors[c] = pos + 1
		sc.ps[pos] = ps[i]
		sc.idx[pos] = int32(i)
	}

	sc.done.arm(spans)

	// Submission: one ring push per non-empty core, all under the ingress
	// mutex so each ring sees a single producer. A full ring is drained by
	// its consumer independently of this mutex (loops never take it), so
	// spinning here cannot deadlock — it is plain backpressure.
	d.ingressMu.Lock()
	if d.closed.Load() {
		d.ingressMu.Unlock()
		d.release(sc)
		// Inline against the current snapshot rather than through
		// Engine.ClassifyBatch: its batch workers may already be torn down
		// when the dataplane was closed by the engine's own Close, and the
		// snapshot outlives both.
		v := d.eng.CurrentView()
		for i := range ps {
			out[i].Rule, out[i].OK = v.Classify(ps[i])
		}
		return
	}
	for c := 0; c < d.cores; c++ {
		if counts[c] == 0 {
			continue
		}
		lo, hi := sc.offs[c], sc.offs[c]+counts[c]
		it := item{kind: itemBatch, ps: sc.ps[lo:hi], idx: sc.idx[lo:hi], out: out, done: &sc.done}
		for !d.loops[c].ring.push(it) {
			runtime.Gosched()
		}
	}
	d.ingressMu.Unlock()

	sc.done.wait()
	d.release(sc)
}

// publishEpoch is the engine's publish hook: fan an epoch message out to
// every core's ring. It runs with the engine's update mutex held, and takes
// the ingress mutex on top — that nesting is safe because no code path
// acquires them in the opposite order (ingress submission never calls into
// the engine's update path), and it is exactly what pins the update's
// position in every ring's FIFO relative to batch submissions.
func (d *Dataplane) publishEpoch(version uint64) {
	d.ingressMu.Lock()
	defer d.ingressMu.Unlock()
	if d.closed.Load() {
		return
	}
	it := item{kind: itemEpoch, seq: version}
	for _, lp := range d.loops {
		for !lp.ring.push(it) {
			runtime.Gosched()
		}
	}
}

// run is one core's loop: drain the ring, spin briefly when it runs dry,
// then park until the producer posts a wake. On stop the loop drains the
// ring to empty before exiting — every accepted span completes, which is
// what makes shutdown safe for submitters already waiting on a completion
// vector.
func (d *Dataplane) run(lp *loop) {
	defer d.wg.Done()
	var it item
	spins := 0
	for {
		if lp.ring.pop(&it) {
			d.handle(lp, &it)
			spins = 0
			continue
		}
		select {
		case <-d.stop:
			d.drain(lp)
			return
		default:
		}
		spins++
		if spins < parkSpins {
			runtime.Gosched()
			continue
		}
		// Park. Arm the sleeping flag, then re-check the ring: a producer
		// that pushed between our last pop and the arm saw sleeping==false
		// and sent no token, so the re-check is what closes that window
		// (both sides are sequentially consistent atomics). The park/wake
		// counters live on this transition path only — the pop-and-handle
		// hot path above never touches them.
		lp.ring.sleeping.Store(true)
		if !lp.ring.empty() {
			lp.ring.sleeping.Store(false)
			spins = 0
			continue
		}
		lp.parks.Add(1)
		select {
		case <-lp.ring.wake:
			lp.ring.sleeping.Store(false)
			lp.wakes.Add(1)
			spins = 0
		case <-d.stop:
			lp.ring.sleeping.Store(false)
			d.drain(lp)
			return
		}
	}
}

// drain empties the ring on shutdown. The engine is still fully alive here:
// the dataplane's Close runs as the first engine closer, before the
// engine's own updater and worker teardown — that ordering is the point of
// the closer registration in Attach.
func (d *Dataplane) drain(lp *loop) {
	var it item
	for lp.ring.pop(&it) {
		d.handle(lp, &it)
	}
}

// handle dispatches one ring item on the loop goroutine.
func (d *Dataplane) handle(lp *loop, it *item) {
	switch it.kind {
	case itemEpoch:
		lp.view = d.eng.CurrentView()
		lp.epochs.Add(1)
		lp.viewVer.Store(lp.view.Version())
		if lp.tel != nil {
			// Epoch reloads are rare; refreshing the interned backend ID here
			// keeps flight-recorder attribution correct across artifact loads.
			_, lp.backendID = d.eng.TelemetrySlowIDs()
		}
	case itemBatch:
		var start time.Time
		if lp.tel != nil {
			start = time.Now()
		}
		v := lp.view
		n := len(it.ps)
		miss := v.ClassifyScatter(lp.cache, it.ps, it.idx, it.out)
		lp.packets.Add(uint64(n))
		lp.batches.Add(1)
		if lp.tel != nil {
			// Record from locals only — never from *it — so the completion
			// decrement below stays the loop's final touch of the batch.
			ns := time.Since(start).Nanoseconds()
			lp.tel.DataplaneBatch.RecordNanos(uint64(lp.core), ns)
			if nn := int64(n); nn > 0 && lp.tel.SlowEnough(ns/nn) {
				lp.tel.Slow.Record(telemetry.Sample{
					UnixNanos:    start.UnixNano(),
					LatencyNanos: ns,
					TableID:      lp.tableID,
					BackendID:    lp.backendID,
					PathID:       telemetry.PathDataplane,
					Packets:      int32(n),
					Visits:       int32(v.Metrics().LookupCost),
					RuleID:       -1,
					Version:      v.Version(),
					CacheHit:     lp.cache != nil && miss == 0,
				})
			}
		}
		// The decrement must be the loop's final touch of the batch: the
		// submitter's wait returns the scratch (which embeds the completion
		// and backs it.ps/it.idx) to the pool the moment it observes zero.
		it.done.finish()
	}
}

// Close stops the loops, draining all accepted work first. Idempotent;
// normally invoked by the engine's own Close via the closer registered in
// Attach. After Close, Classify/ClassifyBatch fall through to the engine.
func (d *Dataplane) Close() {
	d.ingressMu.Lock()
	if d.closed.Load() {
		d.ingressMu.Unlock()
		return
	}
	d.closed.Store(true)
	close(d.stop)
	d.ingressMu.Unlock()
	d.wg.Wait()
}

// --- Control-plane passthroughs -----------------------------------------
//
// These let a Dataplane stand in for an Engine wherever the server's
// interfaces are concerned; updates fan out to the loops via the publish
// hook as a side effect of the engine publishing a new snapshot.

// Insert adds a rule via the engine's online-update path.
func (d *Dataplane) Insert(pos int, r rule.Rule) (engine.UpdateResult, error) {
	return d.eng.Insert(pos, r)
}

// Delete removes a rule via the engine's online-update path.
func (d *Dataplane) Delete(id int) (engine.UpdateResult, error) { return d.eng.Delete(id) }

// SaveArtifact passes through to the engine.
func (d *Dataplane) SaveArtifact(path string) error { return d.eng.SaveArtifact(path) }

// LoadArtifact passes through to the engine; the resulting snapshot
// publication reaches every loop as an epoch message.
func (d *Dataplane) LoadArtifact(path string) (engine.UpdateResult, error) {
	return d.eng.LoadArtifact(path)
}

// UpdaterStats passes through to the engine.
func (d *Dataplane) UpdaterStats() engine.UpdaterStats { return d.eng.UpdaterStats() }

// CoreStats is one loop's published counters.
type CoreStats struct {
	Core        int
	Batches     uint64 // spans handled (a submitted batch counts once per core it touched)
	Packets     uint64
	Epochs      uint64 // snapshot generations observed
	CacheHits   uint64
	CacheMisses uint64
	RingLen     int // queued items at sample time (racy snapshot)
	// RingHighWatermark is the deepest ring occupancy the loop has observed
	// at pop time — the per-core backpressure gauge.
	RingHighWatermark int
	// Parks and Wakes count the loop's park transitions and wake-token
	// wakeups (bumped only when the loop goes idle or is roused, never on
	// the pop-and-handle hot path).
	Parks uint64
	Wakes uint64
	// EpochLag is how many snapshot generations the loop's pinned View
	// trails the engine head at sample time (0 when caught up; transiently
	// nonzero while an epoch message is still queued in the ring).
	EpochLag uint64
	// HitRatio is the per-core flow cache hit ratio in [0, 1] (0 with no
	// cache or no traffic).
	HitRatio float64
}

// Stats is a point-in-time view of the dataplane's counters.
type Stats struct {
	Cores        int
	RingCapacity int
	Batches      uint64
	Packets      uint64
	CacheHits    uint64
	CacheMisses  uint64
	PerCore      []CoreStats
}

// Stats samples every loop's counters.
func (d *Dataplane) Stats() Stats {
	s := Stats{
		Cores:        d.cores,
		RingCapacity: d.loops[0].ring.capacity(),
		PerCore:      make([]CoreStats, d.cores),
	}
	engVer := d.eng.Version()
	for i, lp := range d.loops {
		hits, misses := lp.cache.Stats()
		cs := CoreStats{
			Core:              i,
			Batches:           lp.batches.Load(),
			Packets:           lp.packets.Load(),
			Epochs:            lp.epochs.Load(),
			CacheHits:         hits,
			CacheMisses:       misses,
			RingLen:           lp.ring.len(),
			RingHighWatermark: lp.ring.highWatermark(),
			Parks:             lp.parks.Load(),
			Wakes:             lp.wakes.Load(),
		}
		if ver := lp.viewVer.Load(); engVer > ver {
			cs.EpochLag = engVer - ver
		}
		if total := cs.CacheHits + cs.CacheMisses; total > 0 {
			cs.HitRatio = float64(cs.CacheHits) / float64(total)
		}
		s.PerCore[i] = cs
		s.Batches += cs.Batches
		s.Packets += cs.Packets
		s.CacheHits += cs.CacheHits
		s.CacheMisses += cs.CacheMisses
	}
	return s
}
