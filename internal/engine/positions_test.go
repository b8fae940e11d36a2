package engine

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// positionChurn applies a fixed mix of updates to eng: it inserts a rule
// matching only ps[i] at spread positions i/12 down the list (on top for
// i = 0; behind their packet's winner some never win), deletes one of them
// again, and deletes 16 live winners of packets that another live rule
// behind the winner also matches — so their base lookups land on a
// tombstone and the rescan must find that rule.
func positionChurn(t *testing.T, eng *Engine, ps []rule.Packet) {
	t.Helper()
	var last int
	for i, p := range ps[:12] {
		exact := rule.NewWildcardRule(0)
		for _, d := range rule.Dimensions() {
			exact.Ranges[d] = rule.Range{Lo: p.Field(d), Hi: p.Field(d)}
		}
		res, err := eng.Insert(i*eng.Rules().Len()/12, exact)
		if err != nil {
			t.Fatal(err)
		}
		last = res.ID
	}
	if _, err := eng.Delete(last); err != nil {
		t.Fatal(err)
	}
	deleted := 0
	for _, p := range ps[12:] {
		cur := eng.Rules()
		w := cur.MatchIndex(p)
		if w < 0 {
			continue
		}
		behind := false
		for _, r := range cur.Rules()[w+1:] {
			behind = behind || r.Matches(p)
		}
		if !behind {
			continue
		}
		if _, err := eng.Delete(cur.Rule(w).ID); err != nil {
			t.Fatal(err)
		}
		if deleted++; deleted == 16 {
			return
		}
	}
	t.Fatalf("only %d packets have a base winner with a live match behind it", deleted)
}

// positionShapes builds one engine per snapshot shape a lookup can be served
// from. Each returns nil when the backend cannot take that shape.
var positionShapes = []struct {
	name  string
	start func(t *testing.T, backend string, set *rule.Set, ps []rule.Packet, opts Options) *Engine
}{
	{"built", func(t *testing.T, backend string, set *rule.Set, _ []rule.Packet, opts Options) *Engine {
		eng, err := NewEngine(backend, set, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}},
	{"overlay", func(t *testing.T, backend string, set *rule.Set, ps []rule.Packet, opts Options) *Engine {
		eng, err := NewEngine(backend, set, opts)
		if err != nil {
			t.Fatal(err)
		}
		positionChurn(t, eng, ps)
		if st := eng.UpdaterStats(); st.OverlayRules == 0 || st.Tombstones == 0 {
			t.Fatalf("overlay=%d tombstones=%d, want both > 0", st.OverlayRules, st.Tombstones)
		}
		return eng
	}},
	{"compacted", func(t *testing.T, backend string, set *rule.Set, ps []rule.Packet, opts Options) *Engine {
		eng, err := NewEngine(backend, set, opts)
		if err != nil {
			t.Fatal(err)
		}
		positionChurn(t, eng, ps)
		// More updates land while the compaction rebuilds (the writer lock
		// is free then), so the compaction publishes a view rebased onto the
		// new base: compactOnce's rebase branch.
		s := eng.snap.Load()
		ns := *s
		var once sync.Once
		ns.build = func(set *rule.Set, o Options) (Classifier, error) {
			cls, err := s.build(set, o)
			once.Do(func() { positionChurn(t, eng, ps[len(ps)/2:]) })
			return cls, err
		}
		eng.snap.Store(&ns)
		eng.compactOnce()
		if st := eng.UpdaterStats(); st.Compactions != 1 || st.OverlayRules == 0 || st.Tombstones == 0 {
			t.Fatalf("stats %+v: want one compaction that rebased an overlay with tombstones", st)
		}
		return eng
	}},
	{"artifact", func(t *testing.T, backend string, set *rule.Set, _ []rule.Packet, opts Options) *Engine {
		src, err := NewEngine(backend, set, Options{Timesteps: opts.Timesteps, Workers: opts.Workers, Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		if _, ok := src.snap.Load().cls.(CompiledProvider); !ok {
			return nil // no compiled form to save
		}
		path := filepath.Join(t.TempDir(), backend+".ncaf")
		if err := src.SaveArtifact(path); err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngineFromArtifact(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}},
}

// TestLookupPositionsMatchLinear is the position oracle for every layer
// below the engine's edge: for every registered backend, over every snapshot
// shape (as built; overlay with inserts and tombstones over base winners;
// compacted with updates rebased; artifact-loaded), every answer of
// Engine.Classify and Engine.ClassifyBatch (flow cache off and on — cached
// twice, so the cache answers the second pass),
// View.ClassifyBatch and View.ClassifyCached (uncached, and cached twice)
// must be exactly the rule at the position linear search over the snapshot's
// own list gives — or no rule when it gives -1.
func TestLookupPositionsMatchLinear(t *testing.T) {
	set := overlayTestSet(t, 300)
	// -short keeps a quarter of the packets.
	n := 4096
	if testing.Short() {
		n = 1024
	}
	var ps []rule.Packet
	for _, e := range classbench.GenerateTrace(set, n-n/8, 5) {
		ps = append(ps, e.Key)
	}
	for _, e := range classbench.UniformTrace(set, n/8, 6) {
		ps = append(ps, e.Key)
	}
	out := make([]Result, len(ps))
	// fresh poisons out before each call, so a slot no path wrote fails.
	fresh := func() []Result {
		for i := range out {
			out[i] = Result{Rule: rule.Rule{ID: -1}, OK: true}
		}
		return out
	}

	for _, backend := range realBackends() {
		t.Run(backend, func(t *testing.T) {
			if backend == "neurocuts" && testing.Short() {
				t.Skip("skipping learned backend in -short mode")
			}
			for _, shape := range positionShapes {
				eng := shape.start(t, backend, set, ps, Options{CompactThreshold: -1, Timesteps: 600, Workers: 2, Seed: 42})
				if eng == nil {
					continue
				}
				s := eng.snap.Load()
				want := make([]int, len(ps))
				for i, p := range ps {
					want[i] = s.rules().MatchIndex(p)
				}
				var cfg string
				check := func(path string, at func(i int) Result) {
					t.Helper()
					for i, w := range want {
						got := at(i)
						if w < 0 && (got.OK || got.Rule != rule.Rule{}) || w >= 0 && (!got.OK || got.Rule != s.rules().Rule(w)) {
							t.Fatalf("%s%s %s: packet %d %v: got (%+v, %v), linear search position %d",
								shape.name, cfg, path, i, ps[i], got.Rule, got.OK, w)
						}
					}
				}
				// The cache is read per call, so the one quiescent engine
				// takes each configuration in turn: fewer builds.
				for _, cache := range []int{0, 4096} {
					eng.cache = NewFlowCache(cache)
					cfg = fmt.Sprintf("/cache=%d", cache)
					passes := 1
					if cache > 0 {
						passes = 2
					}
					for pass := 0; pass < passes; pass++ {
						eng.ClassifyBatch(ps, fresh())
						check("Engine.ClassifyBatch", func(i int) Result { return out[i] })
					}
					check("Engine.Classify", func(i int) Result {
						r, ok := eng.Classify(ps[i])
						return Result{r, ok}
					})
				}
				cfg = ""
				view := eng.CurrentView()
				view.ClassifyBatch(ps, fresh())
				check("View.ClassifyBatch", func(i int) Result { return out[i] })
				view.ClassifyCached(nil, ps, fresh())
				check("View.ClassifyCached", func(i int) Result { return out[i] })
				c := NewFlowCache(1024)
				for pass := 0; pass < 2; pass++ {
					view.ClassifyCached(c, ps, fresh())
					check("View.ClassifyCached/cached", func(i int) Result { return out[i] })
				}
				if eng.snap.Load() != s {
					t.Fatalf("%s: the snapshot moved under the checks", shape.name)
				}
				eng.Close()
			}
		})
	}
}
