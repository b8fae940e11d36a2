package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// zipfPackets draws a skewed trace over the set with a uniform tail, so the
// no-match answer is cached and compared too.
func zipfPackets(set *rule.Set, n, flows int, seed int64) []rule.Packet {
	var ps []rule.Packet
	for _, e := range classbench.ZipfTrace(set, n, flows, 1.2, seed) {
		ps = append(ps, e.Key)
	}
	for _, e := range classbench.UniformTrace(set, n/8, seed+1) {
		ps = append(ps, e.Key)
	}
	return ps
}

// TestDifferentialCachedEngines drives a cached engine and an uncached one
// through the same Zipf trace and the same interleaved Insert / Delete /
// compaction / LoadArtifact sequence, and checks every answer of both — the
// whole rule, not just its ID — against linear search over the engine's
// current rule list: all eight backends cold-built, and one engine
// warm-started from an artifact. The cache is far smaller than the flow
// population, so hits, evictions and refills all occur in every phase.
func TestDifferentialCachedEngines(t *testing.T) {
	set := overlayTestSet(t, 200)
	other := artifactTestSet(t, 150)
	dir := t.TempDir()
	artifact := saveTestArtifact(t, other, "hicuts", dir)
	ps := zipfPackets(set, 4000, 160, 9)

	opts := Options{Shards: 2, CompactThreshold: -1, Timesteps: 600, Workers: 2, Seed: 42}
	cachedOpts := opts
	cachedOpts.FlowCacheEntries = 64

	starts := map[string]func(Options) (*Engine, error){
		"artifact": func(o Options) (*Engine, error) { return NewEngineFromArtifact(artifact, o) },
	}
	for _, backend := range realBackends() {
		starts[backend] = func(o Options) (*Engine, error) { return NewEngine(backend, set, o) }
	}
	for name, start := range starts {
		t.Run(name, func(t *testing.T) {
			if name == "neurocuts" && testing.Short() {
				t.Skip("skipping learned backend in -short mode")
			}
			cached, err := start(cachedOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer cached.Close()
			plain, err := start(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			engines := []*Engine{cached, plain}

			rng := rand.New(rand.NewSource(7))
			var inserted []int
			// update applies one step of the op cycle to both engines.
			update := func(step int) {
				t.Helper()
				switch step % 6 {
				case 0, 1, 3:
					r := set.Rule(rng.Intn(set.Len()))
					pos := rng.Intn(plain.Rules().Len() + 1)
					var id int
					for _, e := range engines {
						res, err := e.Insert(pos, r)
						if err != nil {
							t.Fatalf("step %d: insert: %v", step, err)
						}
						id = res.ID
					}
					inserted = append(inserted, id)
				case 2:
					id := inserted[0]
					inserted = inserted[1:]
					for _, e := range engines {
						if _, err := e.Delete(id); err != nil {
							t.Fatalf("step %d: delete %d: %v", step, id, err)
						}
					}
				case 4:
					for _, e := range engines {
						n := e.UpdaterStats().Compactions
						e.compactOnce()
						if e.UpdaterStats().Compactions != n+1 {
							t.Fatalf("step %d: compaction did not run: %s", step, e.UpdaterStats().LastCompactError)
						}
					}
				case 5:
					if step != 11 {
						return // one load per run: it replaces the rule universe
					}
					for _, e := range engines {
						if _, err := e.LoadArtifact(artifact); err != nil {
							t.Fatalf("step %d: load: %v", step, err)
						}
					}
					inserted = nil
				}
			}

			const chunk = 50
			out := make([]Result, chunk)
			for lo, step := 0, 0; lo+chunk <= len(ps); lo, step = lo+chunk, step+1 {
				if step%5 == 4 {
					update(step / 5)
				}
				span := ps[lo : lo+chunk]
				rules := plain.Rules()
				for _, e := range engines {
					if step%2 == 0 {
						e.ClassifyBatch(span, out)
					} else {
						for i, p := range span {
							out[i].Rule, out[i].OK = e.Classify(p)
						}
					}
					for i, p := range span {
						want, ok := rules.Match(p)
						if out[i].OK != ok || out[i].Rule != want {
							t.Fatalf("chunk %d packet %d (%v), cache=%v: got (%+v, %v), linear search says (%+v, %v)",
								step, i, p, e == cached, out[i].Rule, out[i].OK, want, ok)
						}
					}
				}
			}
			if got, want := cached.Rules().Len(), plain.Rules().Len(); got != want {
				t.Fatalf("rule lists diverged: %d vs %d rules", got, want)
			}
			hits, misses := cached.CacheStats()
			if hits == 0 || misses == 0 {
				t.Errorf("cache saw %d hits and %d misses; the run should have both", hits, misses)
			}
			if hits+misses != uint64(len(ps)/chunk*chunk) {
				t.Errorf("cache counted %d probes for %d packets", hits+misses, len(ps)/chunk*chunk)
			}
		})
	}
}

// TestBatchFanOutGate pins the work gate by counting spans handed to workers:
// a 256-packet CutSplit batch is worth no handoff with or without a cache, a
// large linear-search batch is split Shards ways with the caller taking one
// span, and both return what a Shards: 1 engine returns.
func TestBatchFanOutGate(t *testing.T) {
	set := overlayTestSet(t, 1000)
	ps := zipfPackets(set, 1024, 256, 3)
	want := make([]Result, len(ps))
	ref, err := NewEngine("linear", set, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.ClassifyBatch(ps, want)

	for _, tc := range []struct {
		backend  string
		n        int
		opts     Options
		handoffs uint64 // per call
	}{
		{"cutsplit", 256, Options{Shards: 2}, 0},
		{"cutsplit", 256, Options{Shards: 2, FlowCacheEntries: 64}, 0},
		{"linear", 16, Options{Shards: 2}, 0},
		{"linear", 1024, Options{Shards: 1}, 0},
		{"linear", 1024, Options{Shards: 2}, 1},
		{"linear", 1024, Options{Shards: 4}, 3},
		// Mostly misses behind a cache this small: the miss set still fans out.
		{"linear", 1024, Options{Shards: 2, FlowCacheEntries: 16}, 1},
	} {
		t.Run(fmt.Sprintf("%s/n=%d/shards=%d/cache=%d", tc.backend, tc.n, tc.opts.Shards, tc.opts.FlowCacheEntries), func(t *testing.T) {
			eng, err := NewEngine(tc.backend, set, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			const calls = 3
			out := make([]Result, tc.n)
			for c := 0; c < calls; c++ {
				clear(out)
				eng.ClassifyBatch(ps[:tc.n], out)
				for i := range out {
					if out[i] != want[i] {
						t.Fatalf("call %d packet %d: got (%d, %v), want (%d, %v)", c, i, out[i].Rule.ID, out[i].OK, want[i].Rule.ID, want[i].OK)
					}
				}
			}
			if got := eng.Stats().Handoffs; got != calls*tc.handoffs {
				t.Errorf("%d calls handed off %d spans, want %d", calls, got, calls*tc.handoffs)
			}
		})
	}
}

// TestBatchFanOutConcurrentCallers runs fanned-out batches from several
// goroutines at once, cached and not: every caller classifies one span of
// its own batch while the shared workers take the rest. Under -race this is
// the probe for the caller-runs-one-span path and for the shared cache being
// filled from many callers.
func TestBatchFanOutConcurrentCallers(t *testing.T) {
	set := overlayTestSet(t, 600)
	ps := zipfPackets(set, 2048, 512, 5)
	want := make([]Result, len(ps))
	for i, p := range ps {
		want[i].Rule, want[i].OK = set.Match(p)
	}
	for _, cache := range []int{0, 128} {
		eng, err := NewEngine("linear", set, Options{Shards: 3, FlowCacheEntries: cache})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				out := make([]Result, 512)
				for c := 0; c < 6; c++ {
					lo := (g + c) % 4 * 512
					eng.ClassifyBatch(ps[lo:lo+512], out)
					for i := range out {
						if out[i] != want[lo+i] {
							t.Errorf("cache=%d caller %d call %d packet %d: got (%d, %v), want (%d, %v)",
								cache, g, c, i, out[i].Rule.ID, out[i].OK, want[lo+i].Rule.ID, want[lo+i].OK)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if eng.Stats().Handoffs == 0 {
			t.Errorf("cache=%d: no batch fanned out; the test proved nothing", cache)
		}
		eng.Close()
	}
}
