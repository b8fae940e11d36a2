package engine

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"neurocuts/internal/rule"
)

// FlowCache is a 4-way set-associative, lock-free cache of recent
// classification answers: 5-tuple -> position of the winning rule in the
// snapshot's rule list (-1 caches "no rule matches"). Real traffic is heavily
// skewed — a small number of flows carries most packets — so the common-case
// lookup becomes one hash and a probe of one set, four 32-byte slots on two
// adjacent cache lines, whatever the structure behind it costs to walk. It
// is the one flow cache of the serving stack: the engine shares one among
// all its callers, and View.ClassifyCached serves through a caller's own.
//
// Placement: a flow hashes to one set and may sit in any of its four ways.
// A Put reuses the way holding its key, else fills a way whose generation
// is not the writer's (empty, or left stale by an update); when all four
// are live, two spare hash bits pick the victim, so a hit writes nothing.
// At the same 16 384 entries, the direct-mapped cache this replaced missed
// 4.4 % of the flow_zipf workload's packets (8 192 Zipf(1.1) flows), all of
// them conflict misses; four ways miss about 0.7 % (hit ratio 0.956 ->
// 0.993).
//
// Correctness under updates: every slot records the rules generation it was
// filled from (snapshot.rulesGen, which advances exactly when the rule list
// changes), and a hit requires it to equal the reader's. An update makes
// every older entry a miss with no invalidation pass; a compaction, which
// republishes the same list, leaves them valid.
//
// Concurrency: every slot word is atomic and a per-slot sequence word
// guards the group, as in telemetry.Recorder. A reader accepts a slot only
// if the sequence is even and unchanged across its reads, else it reads the
// way as a miss; a writer claims the slot by CAS even->odd and drops its
// entry when it loses — an entry is a hint, never the only copy of an
// answer. No mutex, no allocation, and a single owner pays only uncontended
// atomics.
type FlowCache struct {
	sets []flowSet
	mask uint64
	// hits and misses are tallied by the callers per call (Count), not per
	// probe, so a 256-packet batch costs two adds.
	hits, misses atomic.Uint64
}

// flowWays is the cache's associativity: the slots one key may occupy.
const flowWays = 4

// MaxFlowCacheEntries caps a flow cache's entry budget: 2^26 entries, 2 GiB.
// NewEngine rejects a larger Options.FlowCacheEntries.
const MaxFlowCacheEntries = 1 << 26

// flowSlot is one 32-byte entry, two to a cache line.
type flowSlot struct {
	seq atomic.Uint32
	idx atomic.Int32
	k0  atomic.Uint64 // SrcIP<<32 | DstIP
	k1  atomic.Uint64 // SrcPort<<24 | DstPort<<8 | Proto
	gen atomic.Uint64 // 0 (never a live generation) marks an empty slot
}

// flowSet is the four ways one key may occupy: 128 bytes, two cache lines.
type flowSet [flowWays]flowSlot

// NewFlowCache builds a cache of at least the requested number of entries
// (rounded up to a power of two, and to at least one four-way set), or
// returns nil — a valid, always-missing cache for Stats — when entries <= 0.
// It panics when entries exceeds MaxFlowCacheEntries.
func NewFlowCache(entries int) *FlowCache {
	if entries <= 0 {
		return nil
	}
	if entries > MaxFlowCacheEntries {
		panic(fmt.Sprintf("engine: flow cache of %d entries exceeds MaxFlowCacheEntries (%d)", entries, MaxFlowCacheEntries))
	}
	// A power-of-two number of 128-byte sets is a power-of-two size of at
	// least 128 bytes, which Go's allocator places on a multiple of that
	// size (TestFlowCacheSetAlignment pins it): every set is two whole
	// cache lines.
	sets := max(1, 1<<bits.Len(uint(entries-1))/flowWays)
	return &FlowCache{sets: make([]flowSet, sets), mask: uint64(sets - 1)}
}

// hashPacket mixes a packet's five header fields FNV-1a style into one
// 64-bit flow hash, from which the flow cache picks a set and a victim way.
func hashPacket(p rule.Packet) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(p.SrcIP)
	h *= prime64
	h ^= uint64(p.DstIP)
	h *= prime64
	h ^= uint64(p.SrcPort)<<16 | uint64(p.DstPort)
	h *= prime64
	h ^= uint64(p.Proto)
	h *= prime64
	return h
}

// set returns the set of flow hash h. The index comes from the middle of
// the hash: FNV's low bits never see an input's high bits.
func (c *FlowCache) set(h uint64) *flowSet {
	return &c.sets[(h>>24)&c.mask]
}

// flowKey packs a 5-tuple into the slot's two key words.
func flowKey(p rule.Packet) (k0, k1 uint64) {
	return uint64(p.SrcIP)<<32 | uint64(p.DstIP),
		uint64(p.SrcPort)<<24 | uint64(p.DstPort)<<8 | uint64(p.Proto)
}

// load is the reader's half of the slot protocol: the cached index for key
// (k0, k1) at generation gen, valid only if the sequence word was even and
// did not move across the reads.
func (s *flowSlot) load(k0, k1, gen uint64) (idx int32, hit bool) {
	seq := s.seq.Load()
	if s.k0.Load() != k0 || s.k1.Load() != k1 || s.gen.Load() != gen {
		return 0, false
	}
	idx = s.idx.Load()
	return idx, seq&1 == 0 && s.seq.Load() == seq
}

// load probes the set's four ways for key (k0, k1) at generation gen.
func (s *flowSet) load(k0, k1, gen uint64) (idx int32, hit bool) {
	for w := range s {
		if idx, hit = s[w].load(k0, k1, gen); hit {
			return idx, true
		}
	}
	return 0, false
}

// Get returns the rule index cached for p at rules generation gen (-1: no
// rule matches), whether the probe hit, and p's flow hash, which the Put
// that fills a miss takes back so that a packet is hashed once. It does not
// count the probe.
func (c *FlowCache) Get(p rule.Packet, gen uint64) (idx int32, hit bool, h uint64) {
	h = hashPacket(p)
	k0, k1 := flowKey(p)
	idx, hit = c.set(h).load(k0, k1, gen)
	return idx, hit, h
}

// FlowMiss is the index GetBatch reports for a packet the cache could not
// answer.
const FlowMiss int32 = -2

// GetBatch probes every packet of ps, leaving in idx[i] what Get would
// return for ps[i] or FlowMiss, and for every miss ps[i]'s flow hash in
// hs[i] (the rest of hs is left as it was). Probing a batch in one tight
// loop, apart from whatever the caller does with the answers, lets the set
// reads of neighbouring packets overlap. The way loop is written out here:
// flowSet.load is too large to inline, and the call cost 1-2 ns a packet.
func (c *FlowCache) GetBatch(ps []rule.Packet, gen uint64, idx []int32, hs []uint64) {
	idx, hs = idx[:len(ps)], hs[:len(ps)]
	for i := range ps {
		h := hashPacket(ps[i])
		k0, k1 := flowKey(ps[i])
		set := c.set(h)
		ix, hit := int32(0), false
		for w := range set {
			if ix, hit = set[w].load(k0, k1, gen); hit {
				break
			}
		}
		if !hit {
			ix, hs[i] = FlowMiss, h
		}
		idx[i] = ix
	}
}

// Put caches idx as p's answer at rules generation gen; h is p's flow hash
// as Get or GetBatch reported it. It fills the way of p's set that already
// holds p's key (so a flow repeated within one batch takes one way, not
// several), else the first whose generation is not gen, else the way h's
// top two bits name; it drops the entry when another writer holds that way.
func (c *FlowCache) Put(h uint64, p rule.Packet, gen uint64, idx int32) {
	k0, k1 := flowKey(p)
	set := c.set(h)
	var s *flowSlot
	for w := range set {
		if set[w].k0.Load() == k0 && set[w].k1.Load() == k1 {
			s = &set[w]
			break
		}
		if s == nil && set[w].gen.Load() != gen {
			s = &set[w]
		}
	}
	if s == nil {
		s = &set[h>>62]
	}
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.k0.Store(k0)
	s.k1.Store(k1)
	s.gen.Store(gen)
	s.idx.Store(idx)
	s.seq.Store(seq + 2)
}

// Count adds one call's probe outcomes to the cumulative counters.
func (c *FlowCache) Count(hits, misses int) {
	if hits != 0 {
		c.hits.Add(uint64(hits))
	}
	if misses != 0 {
		c.misses.Add(uint64(misses))
	}
}

// Stats reports the cumulative hit and miss counters (zeros for a nil
// cache).
func (c *FlowCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// CacheStats reports the engine flow cache's cumulative hit and miss
// counters, or zeros when the engine runs without a cache.
func (e *Engine) CacheStats() (hits, misses uint64) { return e.cache.Stats() }
