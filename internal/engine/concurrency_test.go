package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// TestConcurrentBatchDuringUpdates runs concurrent ClassifyBatch readers
// against a writer that continuously inserts and deletes rules, forcing
// snapshot swaps. The classifier carries a wildcard default rule that the
// writer never touches, so every lookup must succeed: a single lost lookup
// (ok=false) or a returned rule that does not actually match its packet
// means a reader observed a torn or stale-freed structure. Run under
// `go test -race` this also proves the RCU swap publishes safely.
func TestConcurrentBatchDuringUpdates(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	base := classbench.Generate(fam, 150, 3)
	rules := append([]rule.Rule(nil), base.Rules()...)
	rules = append(rules, rule.NewWildcardRule(len(rules)))
	set := rule.NewSet(rules)

	var packets []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 512, 4) {
		packets = append(packets, e.Key)
	}

	const (
		readers = 4
		updates = 30
	)
	for _, backend := range []string{"hicuts", "linear"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			eng, err := NewEngine(backend, set, Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}

			var (
				stop      atomic.Bool
				lost      atomic.Int64
				mismatch  atomic.Int64
				completed atomic.Int64
				wg        sync.WaitGroup
			)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]Result, len(packets))
					for !stop.Load() {
						eng.ClassifyBatch(packets, out)
						for i := range out {
							if !out[i].OK {
								lost.Add(1)
							} else if !out[i].Rule.Matches(packets[i]) {
								mismatch.Add(1)
							}
						}
						completed.Add(int64(len(out)))
					}
				}()
			}

			// Writer: insert a high-priority rule, then delete it, over and
			// over. Each call rebuilds off-line and swaps the snapshot.
			lastVersion := eng.Version()
			for u := 0; u < updates; u++ {
				r := rule.NewWildcardRule(0)
				r.Ranges[rule.DimProto] = rule.Range{Lo: 6, Hi: 6}
				ins, err := eng.Insert(0, r)
				if err != nil {
					t.Fatalf("update %d: insert: %v", u, err)
				}
				if ins.Version <= lastVersion {
					t.Fatalf("update %d: version did not advance: %d -> %d", u, lastVersion, ins.Version)
				}
				lastVersion = ins.Version
				del, err := eng.Delete(ins.ID)
				if err != nil {
					t.Fatalf("update %d: delete: %v", u, err)
				}
				lastVersion = del.Version
			}
			// Fast backends can finish all updates before the readers get
			// scheduled; keep the engine serving until every reader has
			// pushed through at least one full batch so the overlap is real.
			for completed.Load() < int64(readers*len(packets)) {
				runtime.Gosched()
			}
			stop.Store(true)
			wg.Wait()

			if n := lost.Load(); n > 0 {
				t.Errorf("%d lookups lost (ok=false) despite the default rule", n)
			}
			if n := mismatch.Load(); n > 0 {
				t.Errorf("%d lookups returned a rule that does not match its packet", n)
			}
			if completed.Load() == 0 {
				t.Error("readers completed no batches; test proved nothing")
			}
			if eng.Rules().Len() != set.Len() {
				t.Errorf("rule count drifted: %d, want %d", eng.Rules().Len(), set.Len())
			}
		})
	}
}
