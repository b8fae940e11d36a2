package classifier_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neurocuts/pkg/classifier"
)

func mustRules(t *testing.T, family string, size int) *classifier.RuleSet {
	t.Helper()
	rules, err := classifier.GenerateRules(family, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestOpenBackendsAgreeWithLinearSearch opens a few representative backends
// through the public API and checks every classification against the rule
// set's own linear search.
func TestOpenBackendsAgreeWithLinearSearch(t *testing.T) {
	rules := mustRules(t, "acl1", 200)
	keys := classifier.GenerateTrace(rules, 2000, 7)
	ctx := context.Background()
	for _, backend := range []string{"linear", "hicuts"} {
		c, err := classifier.Open(rules, classifier.WithBackend(backend))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		results, err := c.ClassifyBatch(ctx, keys)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for i, key := range keys {
			want, wantOK := rules.Match(key)
			single, ok, err := c.Classify(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || (ok && single.Priority != want.Priority) {
				t.Fatalf("%s: Classify(%v) = %v/%v, want %v/%v", backend, key, single, ok, want, wantOK)
			}
			if results[i].OK != wantOK || (wantOK && results[i].Rule.Priority != want.Priority) {
				t.Fatalf("%s: batch slot %d disagrees with linear search", backend, i)
			}
		}
		c.Close()
	}
}

func TestClassifyHonorsContext(t *testing.T) {
	rules := mustRules(t, "acl1", 50)
	c, err := classifier.Open(rules, classifier.WithBackend("linear"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Classify(cancelled, classifier.Packet{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Classify on cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := c.ClassifyBatch(cancelled, make([]classifier.Packet, 10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ClassifyBatch on cancelled context: err = %v, want context.Canceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := c.ClassifyBatch(expired, make([]classifier.Packet, 10)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ClassifyBatch past deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestInsertDeleteAndStats(t *testing.T) {
	rules := mustRules(t, "acl1", 100)
	c, err := classifier.Open(rules, classifier.WithBackend("linear"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// A top-priority rule matching one exact 5-tuple must win immediately.
	r := classifier.NewWildcardRule(-1)
	r.Ranges[classifier.DimDstIP] = classifier.PrefixRange(0x0A00002A, 32, 32)
	r.Ranges[classifier.DimDstPort] = classifier.Range{Lo: 22, Hi: 22}
	r.Ranges[classifier.DimProto] = classifier.Range{Lo: 6, Hi: 6}
	if err := classifier.Validate(r); err != nil {
		t.Fatal(err)
	}
	res, err := c.Insert(0, r)
	if err != nil {
		t.Fatal(err)
	}
	key := classifier.Packet{SrcIP: 1, DstIP: 0x0A00002A, SrcPort: 1000, DstPort: 22, Proto: 6}
	got, ok, err := c.Classify(ctx, key)
	if err != nil || !ok || got.ID != res.ID {
		t.Fatalf("inserted rule did not win: got %v ok=%v err=%v want id %d", got, ok, err, res.ID)
	}

	if _, err := c.Delete(res.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(res.ID); !errors.Is(err, classifier.ErrRuleNotFound) {
		t.Fatalf("double delete: err = %v, want ErrRuleNotFound", err)
	}

	st := c.Stats()
	if st.Backend != "linear" || st.Rules != 100 || st.Version < 3 {
		t.Fatalf("Stats() = %+v", st)
	}
	if st.Compactions != 0 {
		t.Fatalf("updates on a default classifier rebuilt the backend %d times", st.Compactions)
	}
}

func TestArtifactSaveLoadRoundTrip(t *testing.T) {
	rules := mustRules(t, "acl1", 150)
	c, err := classifier.Open(rules, classifier.WithBackend("hicuts"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "policy.ncaf")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	c.Close()

	warm, err := classifier.Open(nil, classifier.WithArtifact(path))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.Backend() != "hicuts" {
		t.Fatalf("warm-start backend = %q", warm.Backend())
	}
	ctx := context.Background()
	for _, key := range classifier.GenerateTrace(rules, 1000, 3) {
		want, wantOK := rules.Match(key)
		got, ok, err := warm.Classify(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK || (ok && got.Priority != want.Priority) {
			t.Fatalf("artifact-served lookup disagrees with linear search on %v", key)
		}
	}

	// Open with both rules and an artifact is ambiguous and must fail.
	if _, err := classifier.Open(rules, classifier.WithArtifact(path)); err == nil {
		t.Fatal("Open(rules, WithArtifact) should fail")
	}
	if _, err := classifier.Open(nil); err == nil {
		t.Fatal("Open(nil) without WithArtifact should fail")
	}
}

func TestOnlineUpdatesWithJournalReplay(t *testing.T) {
	rules := mustRules(t, "acl2", 80)
	journal := filepath.Join(t.TempDir(), "updates.journal")
	c, err := classifier.Open(rules,
		classifier.WithBackend("linear"),
		classifier.WithJournal(journal),
		classifier.WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	r := classifier.NewWildcardRule(-1)
	r.Ranges[classifier.DimProto] = classifier.Range{Lo: 89, Hi: 89}
	res, err := c.Insert(0, r)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PendingUpdates != 1 || st.JournalRecords != 1 {
		t.Fatalf("Stats() after overlay insert = %+v", st)
	}
	c.Close()

	// A re-open over the same rules and journal replays the insert.
	c2, err := classifier.Open(rules,
		classifier.WithBackend("linear"),
		classifier.WithJournal(journal))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	key := classifier.Packet{Proto: 89}
	got, ok, err := c2.Classify(context.Background(), key)
	if err != nil || !ok || got.ID != res.ID {
		t.Fatalf("journal replay lost the insert: got %v ok=%v err=%v", got, ok, err)
	}
}

func TestClosedClassifierFailsClosed(t *testing.T) {
	rules := mustRules(t, "acl1", 20)
	c, err := classifier.Open(rules, classifier.WithBackend("linear"))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, _, err := c.Classify(context.Background(), classifier.Packet{}); !errors.Is(err, classifier.ErrClosed) {
		t.Fatalf("Classify after Close: err = %v", err)
	}
	if _, err := c.Insert(0, classifier.NewWildcardRule(0)); !errors.Is(err, classifier.ErrClosed) {
		t.Fatalf("Insert after Close: err = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTelemetryStatsAndAdmin exercises the WithTelemetry/WithSlowThreshold
// surface end to end: Stats().Telemetry summarises real traffic, the admin
// /metrics gains the native histogram families, and /debug/slow dumps the
// flight recorder.
func TestTelemetryStatsAndAdmin(t *testing.T) {
	rules := mustRules(t, "acl1", 200)
	c, err := classifier.Open(rules,
		classifier.WithBackend("linear"),
		classifier.WithSlowThreshold(0)) // implies WithTelemetry; capture all
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	keys := classifier.GenerateTrace(rules, 256, 7)
	if _, err := c.ClassifyBatch(ctx, keys); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys[:16] {
		if _, _, err := c.Classify(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Insert(0, classifier.NewWildcardRule(0)); err != nil {
		t.Fatal(err)
	}

	ts := c.Stats().Telemetry
	if ts == nil {
		t.Fatal("Stats().Telemetry = nil with WithSlowThreshold set")
	}
	if ts.Lookup.Count != 16 {
		t.Errorf("Lookup.Count = %d, want 16", ts.Lookup.Count)
	}
	if ts.LookupBatch.Count == 0 {
		t.Error("LookupBatch.Count = 0, want recorded batch spans")
	}
	if ts.UpdateInsert.Count != 1 {
		t.Errorf("UpdateInsert.Count = %d, want 1", ts.UpdateInsert.Count)
	}
	if ts.Lookup.P50 < 0 || ts.Lookup.P99 < ts.Lookup.P50 {
		t.Errorf("quantiles out of order: p50=%v p99=%v", ts.Lookup.P50, ts.Lookup.P99)
	}
	if ts.SlowThreshold != 0 {
		t.Errorf("SlowThreshold = %v, want 0", ts.SlowThreshold)
	}
	if ts.SlowCaptured == 0 {
		t.Error("SlowCaptured = 0 at threshold 0")
	}

	srv := httptest.NewServer(c.AdminHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "# TYPE neurocuts_lookup_latency_seconds histogram") {
		t.Error("/metrics missing the lookup latency histogram family")
	}
	resp, err = http.Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	slow, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(slow), `"threshold_nanos": 0`) || !strings.Contains(string(slow), `"latency_nanos"`) {
		t.Errorf("/debug/slow missing threshold or entries:\n%s", slow)
	}

	// Without telemetry options, Stats().Telemetry stays nil.
	plain, err := classifier.Open(rules, classifier.WithBackend("linear"))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Stats().Telemetry != nil {
		t.Error("Stats().Telemetry non-nil without WithTelemetry")
	}
}

func TestAdminHandler(t *testing.T) {
	c, err := classifier.Open(mustRules(t, "acl1", 100),
		classifier.WithBackend("linear"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.AdminHandler())
	defer ts.Close()

	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, _ := fetch("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := fetch("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d", code)
	}
	code, body := fetch("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, `neurocuts_engine_rules{table="default"} 100`) {
		t.Fatalf("/metrics missing the rule-count gauge:\n%s", body)
	}

	// After Close the handler keeps serving, but readiness flips to 503.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := fetch("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "closed") {
		t.Fatalf("/readyz after Close = %d %q, want 503 naming the closed classifier", code, body)
	}
	if code, _ := fetch("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics after Close = %d", code)
	}
}
