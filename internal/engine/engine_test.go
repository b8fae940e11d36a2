package engine

import (
	"runtime"
	"strings"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// realBackends returns the registry minus backends registered by tests
// themselves (e.g. the poisoned warm-start backend), whose names carry a
// "-test-" marker.
func realBackends() []string {
	var out []string
	for _, b := range Backends() {
		if !strings.Contains(b, "-test-") {
			out = append(out, b)
		}
	}
	return out
}

// testSet generates a small ClassBench classifier for the unit tests.
func testSet(t *testing.T, family string, size int) *rule.Set {
	t.Helper()
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(fam, size, 1)
}

func TestBackendsRegistered(t *testing.T) {
	want := []string{"cutsplit", "efficuts", "hicuts", "hypercuts", "linear", "neurocuts"}
	got := realBackends()
	if len(got) != len(want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", got, want)
		}
	}
}

func TestNewUnknownBackend(t *testing.T) {
	set := testSet(t, "acl1", 50)
	if _, err := New("no-such-backend", set); err == nil {
		t.Fatal("New with unknown backend: expected error")
	} else if !strings.Contains(err.Error(), "hicuts") {
		t.Errorf("error should list known backends, got: %v", err)
	}
}

func TestDisplayName(t *testing.T) {
	if got := DisplayName("hicuts"); got != "HiCuts" {
		t.Errorf("DisplayName(hicuts) = %q", got)
	}
	if got := DisplayName("mystery"); got != "mystery" {
		t.Errorf("DisplayName(mystery) = %q, want input unchanged", got)
	}
}

func TestMetricsPopulated(t *testing.T) {
	set := testSet(t, "acl1", 100)
	for _, name := range []string{"linear", "hicuts"} {
		cls, err := New(name, set)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := cls.Metrics()
		if m.Backend != name {
			t.Errorf("%s: Metrics().Backend = %q", name, m.Backend)
		}
		if m.Rules != set.Len() {
			t.Errorf("%s: Metrics().Rules = %d, want %d", name, m.Rules, set.Len())
		}
		if m.LookupCost <= 0 || m.MemoryBytes <= 0 || m.Entries <= 0 {
			t.Errorf("%s: metrics not populated: %+v", name, m)
		}
	}
}

// TestEngineBatchMatchesSingle checks that the batch path returns exactly
// what the single-packet path returns, across batch sizes.
func TestEngineBatchMatchesSingle(t *testing.T) {
	set := testSet(t, "fw1", 200)
	trace := classbench.GenerateTrace(set, 2000, 7)
	eng, err := NewEngine("hicuts", set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, n := range []int{1, 63, 128, 2000} {
		ps := make([]rule.Packet, n)
		for i := range ps {
			ps[i] = trace[i%len(trace)].Key
		}
		out := make([]Result, n)
		eng.ClassifyBatch(ps, out)
		for i, p := range ps {
			r, ok := eng.Classify(p)
			if out[i].OK != ok || (ok && out[i].Rule.Priority != r.Priority) {
				t.Fatalf("n=%d packet %d: batch (%v, prio %d) != single (%v, prio %d)",
					n, i, out[i].OK, out[i].Rule.Priority, ok, r.Priority)
			}
		}
	}
}

// TestEngineInsertDelete exercises the RCU update path sequentially: an
// inserted top-priority rule must win immediately after the swap, and
// deleting it must restore the previous winner.
func TestEngineInsertDelete(t *testing.T) {
	set := testSet(t, "acl1", 100)
	for _, backend := range []string{"linear", "hicuts"} {
		eng, err := NewEngine(backend, set, Options{})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if v := eng.Version(); v != 1 {
			t.Fatalf("%s: initial version %d", backend, v)
		}

		p := rule.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
		before, beforeOK := eng.Classify(p)

		// A wildcard rule at position 0 must now match everything first.
		res, err := eng.Insert(0, rule.NewWildcardRule(0))
		if err != nil {
			t.Fatalf("%s: insert: %v", backend, err)
		}
		if res.Version != 2 {
			t.Errorf("%s: version after insert = %d, want 2", backend, res.Version)
		}
		if res.Rules != set.Len()+1 {
			t.Errorf("%s: UpdateResult.Rules = %d, want %d", backend, res.Rules, set.Len()+1)
		}
		id := res.ID
		got, ok := eng.Classify(p)
		if !ok || got.ID != id || got.Priority != 0 {
			t.Fatalf("%s: after insert got (%+v, %v), want inserted rule id %d", backend, got, ok, id)
		}
		if eng.Rules().Len() != set.Len()+1 {
			t.Errorf("%s: rules = %d, want %d", backend, eng.Rules().Len(), set.Len()+1)
		}

		// Deleting it restores the original classification.
		if _, err := eng.Delete(id); err != nil {
			t.Fatalf("%s: delete: %v", backend, err)
		}
		after, afterOK := eng.Classify(p)
		if afterOK != beforeOK || (beforeOK && after.Priority != before.Priority) {
			t.Fatalf("%s: after delete got (%+v, %v), want original (%+v, %v)",
				backend, after, afterOK, before, beforeOK)
		}
		if _, err := eng.Delete(id); err == nil {
			t.Errorf("%s: deleting a missing id should fail", backend)
		}
		if v := eng.Version(); v != 3 {
			t.Errorf("%s: final version = %d, want 3 (failed delete must not bump)", backend, v)
		}
	}
}

// TestClassifyBatchAfterClose: lookups run on the caller, so an engine
// starts no goroutine to serve them and answers correctly after Close.
func TestClassifyBatchAfterClose(t *testing.T) {
	set := testSet(t, "acl1", 300)
	trace := classbench.GenerateTrace(set, 4096, 9)
	ps := make([]rule.Packet, len(trace))
	for i, e := range trace {
		ps[i] = e.Key
	}
	check := func(when string, out []Result) {
		t.Helper()
		for i, p := range ps {
			r, ok := set.Match(p)
			if out[i].OK != ok || ok && out[i].Rule != r {
				t.Fatalf("%s: packet %d: got (%d, %v), want (%d, %v)", when, i, out[i].Rule.ID, out[i].OK, r.ID, ok)
			}
		}
	}
	for _, cache := range []int{0, 1024} {
		before := runtime.NumGoroutine()
		eng, err := NewEngine("linear", set, Options{FlowCacheEntries: cache})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Result, len(ps))
		eng.ClassifyBatch(ps, out)
		check("open", out)
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("cache=%d: a read-only engine started %d goroutines", cache, after-before)
		}
		eng.Close()
		eng.Close() // idempotent
		clear(out)
		eng.ClassifyBatch(ps, out)
		check("closed", out)
	}
}
