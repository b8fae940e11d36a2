package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"neurocuts/internal/rule"
)

// writeCostEngine returns a linear-backend engine over an n-rule table whose
// write path is warm: the overlay base exists and 32 inserts plus 32 deletes
// of base rules are pending. Compaction is off, so nothing but the updates
// themselves allocates; the backend does not matter to an update, and linear
// builds a 100k-rule table at once.
func writeCostEngine(tb testing.TB, n int) (*Engine, *rule.Set) {
	tb.Helper()
	set := overlayTestSet(tb, n)
	eng, err := NewEngine("linear", set, Options{CompactThreshold: -1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := eng.Insert(i*n/32, set.Rule(i*7%n)); err != nil {
			tb.Fatal(err)
		}
		if _, err := eng.Delete(set.Rule(i*n/32 + 1).ID); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, set
}

// TestUpdateWriteCostBound: an Insert or a Delete on a warm engine costs
// O(overlay) plus a few bytes per rule, not a copy of the rule list. Over 64
// updates of each kind, with the overlay well below the default compaction
// threshold, the bytes allocated per update stay at or under 8 per rule plus
// 64 KiB, at 10k and at 100k rules. A path that copies the 96-byte rules on
// every update allocates about 96 per rule and fails.
func TestUpdateWriteCostBound(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		t.Run(fmt.Sprintf("rules=%d", n), func(t *testing.T) {
			eng, set := writeCostEngine(t, n)
			defer eng.Close()
			limit := uint64(8*n + 64<<10)
			rng := rand.New(rand.NewSource(int64(n)))
			var ids []int
			perUpdate := func(name string, update func(k int)) {
				t.Helper()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for k := 0; k < 64; k++ {
					update(k)
				}
				runtime.ReadMemStats(&after)
				if got := (after.TotalAlloc - before.TotalAlloc) / 64; got > limit {
					t.Errorf("%s allocates %d B per update at %d rules, want <= %d (8 per rule + 64 KiB)", name, got, n, limit)
				} else {
					t.Logf("%s: %d B per update at %d rules (limit %d)", name, got, n, limit)
				}
			}
			perUpdate("Insert", func(k int) {
				res, err := eng.Insert(rng.Intn(eng.Len()+1), set.Rule(rng.Intn(n)))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, res.ID)
			})
			// Alternately an overlay rule and a live base rule.
			perUpdate("Delete", func(k int) {
				id := ids[k/2]
				if k%2 == 1 {
					id = set.Rule(k*n/64 + 3).ID
				}
				if _, err := eng.Delete(id); err != nil {
					t.Fatal(err)
				}
			})
			if st := eng.UpdaterStats(); st.OverlayRules+st.Tombstones >= DefaultCompactThreshold {
				t.Fatalf("%d updates pending: the overlay reached the compaction threshold", st.OverlayRules+st.Tombstones)
			}
		})
	}
}

// BenchmarkEngineInsert prices the write path at 10k and 100k rules: each
// iteration inserts a rule at a random position and deletes the rule
// inserted one iteration earlier, so the overlay holds a steady 33 inserts
// and 32 tombstones (warm, below any compaction threshold) and the figures
// are per update.
func BenchmarkEngineInsert(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			eng, set := writeCostEngine(b, n)
			defer eng.Close()
			rng := rand.New(rand.NewSource(1))
			res, err := eng.Insert(rng.Intn(n), set.Rule(0))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prev := res.ID
				if res, err = eng.Insert(rng.Intn(n), set.Rule(i%n)); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Delete(prev); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N)/1e3, "us/update")
		})
	}
}

// racingBuild, when set, parks the racing test backend's builder mid-build:
// it signals entered, then waits for release.
var racingBuild atomic.Pointer[buildGate]

type buildGate struct{ entered, release chan struct{} }

func init() {
	Register("racing-test-backend", "Racing", func(set *rule.Set, opts Options) (Classifier, error) {
		if g := racingBuild.Load(); g != nil {
			g.entered <- struct{}{}
			<-g.release
		}
		return NewWithOptions("hicuts", set, opts)
	})
}

// TestCompactionRacingUpdates parks a compaction's rebuild and lands inserts
// and deletes while it is parked — among them deletes of a base rule, of a
// rule inserted before the build (both in the list being folded) and of a
// rule inserted during it — then lets the build finish. Throughout, the
// engine answers as linear search over a reference list edited beside it,
// each update advances the version by one, and the rebase by one more; after
// it Rules() is the reference list and the next updates derive from the
// rebased view.
func TestCompactionRacingUpdates(t *testing.T) {
	set := overlayTestSet(t, 2000)
	trace := allocTestPackets(set, 4000)
	eng, err := NewEngine("racing-test-backend", set, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref := set.Clone()
	version := eng.Version()
	rng := rand.New(rand.NewSource(9))
	out := make([]Result, len(trace))

	check := func(when string) {
		t.Helper()
		eng.ClassifyBatch(trace, out)
		for i, p := range trace {
			want, wok := ref.Match(p)
			if got, ok := eng.Classify(p); ok != wok || got != want {
				t.Fatalf("%s: packet %d: Classify (%v, %v), linear search (%v, %v)", when, i, got, ok, want, wok)
			}
			if out[i].OK != wok || out[i].Rule != want {
				t.Fatalf("%s: packet %d: ClassifyBatch (%v, %v), linear search (%v, %v)", when, i, out[i].Rule, out[i].OK, want, wok)
			}
		}
	}
	insert := func() int {
		t.Helper()
		pos, r := rng.Intn(ref.Len()+1), set.Rule(rng.Intn(set.Len()))
		res, err := eng.Insert(pos, r)
		if err != nil {
			t.Fatal(err)
		}
		version++
		if res.Version != version || eng.Version() != version {
			t.Fatalf("insert published version %d, want %d", res.Version, version)
		}
		r.ID = res.ID
		ref.Insert(pos, r)
		return res.ID
	}
	remove := func(id int) {
		t.Helper()
		res, err := eng.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		version++
		if res.Version != version || eng.Version() != version {
			t.Fatalf("delete published version %d, want %d", res.Version, version)
		}
		for i, r := range ref.Rules() {
			if r.ID == id {
				ref.Remove(i)
				break
			}
		}
	}

	var before []int
	for i := 0; i < 24; i++ {
		before = append(before, insert())
		remove(set.Rule(i * 80).ID)
	}
	check("before the compaction")

	gate := &buildGate{entered: make(chan struct{}), release: make(chan struct{})}
	racingBuild.Store(gate)
	done := make(chan struct{})
	go func() { eng.compactOnce(); close(done) }()
	<-gate.entered
	racingBuild.Store(nil)

	during := []int{insert(), insert()}
	remove(set.Rule(1001).ID) // a base rule of the list being folded
	remove(before[3])         // an insert that list already holds
	during = append(during, insert())
	remove(during[1]) // an insert the build never saw
	insert()
	check("during the compaction")

	close(gate.release)
	<-done
	version++
	if got := eng.Version(); got != version {
		t.Fatalf("after the rebase: version %d, want %d", got, version)
	}
	st := eng.UpdaterStats()
	if st.Compactions != 1 || st.OverlayRules != 3 || st.Tombstones != 2 {
		t.Fatalf("after the rebase: %+v, want 1 compaction, the 3 live mid-build inserts and 2 tombstones pending", st)
	}
	if got := eng.Rules().Rules(); !reflect.DeepEqual(got, ref.Rules()) {
		t.Fatalf("after the rebase: Rules() differs from the reference list (%d vs %d rules)", len(got), ref.Len())
	}
	check("after the rebase")

	remove(during[0])
	remove(set.Rule(1999).ID)
	insert()
	if got := eng.Rules().Rules(); !reflect.DeepEqual(got, ref.Rules()) {
		t.Fatal("after updates on the rebased view: Rules() differs from the reference list")
	}
	check("after updates on the rebased view")
}
