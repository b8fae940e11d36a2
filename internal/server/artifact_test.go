package server

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

func artifactTestEngine(t *testing.T, backend string, size int) (*engine.Engine, *rule.Set) {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, size, 5)
	eng, err := engine.NewEngine(backend, set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng, set
}

// TestSaveLoadEndpoints drives the save/load admin requests end to end:
// save the served tree as an artifact, mutate the rule set live, then load
// the artifact back and verify the original classification behaviour
// returns with a bumped snapshot version.
func TestSaveLoadEndpoints(t *testing.T) {
	eng, set := artifactTestEngine(t, "hicuts", 200)
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) // registered before the client's cleanup, so the client closes first
	client := dialV2Test(t, addr.String())

	path := filepath.Join(t.TempDir(), "served.ncaf")
	if err := client.SaveArtifact(path); err != nil {
		t.Fatalf("save endpoint: %v", err)
	}

	// Shadow everything with a top-priority wildcard so lookups change.
	id, _, err := client.AddRule(0, parseRule(t, "@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00"))
	if err != nil {
		t.Fatal(err)
	}
	probe := classbench.GenerateTrace(set, 1, 3)[0].Key
	gotID, _, ok, err := client.Classify(probe)
	if err != nil || !ok || gotID != id {
		t.Fatalf("wildcard not winning after add: id=%d ok=%v err=%v", gotID, ok, err)
	}

	version, rules, err := client.LoadArtifact(path)
	if err != nil {
		t.Fatalf("load endpoint: %v", err)
	}
	if rules != set.Len() {
		t.Fatalf("loaded artifact has %d rules, want %d", rules, set.Len())
	}
	if version != 3 { // build=1, add=2, load=3
		t.Fatalf("version after load = %d, want 3", version)
	}
	want := set.MatchIndex(probe)
	_, prio, ok, err := client.Classify(probe)
	if err != nil {
		t.Fatal(err)
	}
	got := -1
	if ok {
		got = prio
	}
	if got != want {
		t.Fatalf("after artifact reload: got priority %d, linear search says %d", got, want)
	}
}

// TestArtifactEndpointsUnsupported: a backend with no compiled form answers
// save with a protocol error, not a dropped connection.
func TestArtifactEndpointsUnsupported(t *testing.T) {
	eng, _ := artifactTestEngine(t, "linear", 50)
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) // registered before the client's cleanup, so the client closes first
	client := dialV2Test(t, addr.String())
	// linear has no compiled form: SaveArtifact must fail cleanly over the
	// wire.
	if err := client.SaveArtifact(filepath.Join(t.TempDir(), "x.ncaf")); err == nil {
		t.Fatal("save succeeded for a backend with no compiled form")
	}
	if _, _, err := client.LoadArtifact(filepath.Join(t.TempDir(), "missing.ncaf")); err == nil {
		t.Fatal("load succeeded for a missing artifact")
	}
	// The connection must still be usable afterwards.
	if _, _, _, err := client.Classify(rule.Packet{Proto: 6}); err != nil {
		t.Fatalf("connection unusable after artifact errors: %v", err)
	}
}

// TestShutdownDrainsIdleConnections: Shutdown must complete even while a
// client sits connected and idle (where Close would block forever), and
// requests answered before the signal must have been fully served.
func TestShutdownDrainsIdleConnections(t *testing.T) {
	eng, set := artifactTestEngine(t, "hicuts", 100)
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := dialV2Test(t, addr.String())

	// A served batch completes before shutdown begins.
	var packets []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 300, 7) {
		packets = append(packets, e.Key)
	}
	results, err := client.ClassifyBatch(packets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(packets) {
		t.Fatalf("batch returned %d results, want %d", len(results), len(packets))
	}

	// The client stays connected and idle; Shutdown must still return.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %s with an idle connection", elapsed)
	}
}

// TestShutdownAnswersInFlightBatch: a batch whose frame is already on the
// wire when Shutdown fires still receives all of its responses.
func TestShutdownAnswersInFlightBatch(t *testing.T) {
	eng, set := artifactTestEngine(t, "hicuts", 100)
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := dialV2Test(t, addr.String())

	var packets []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 2000, 9) {
		packets = append(packets, e.Key)
	}
	type batchResult struct {
		n   int
		err error
	}
	resCh := make(chan batchResult, 1)
	go func() {
		rs, err := client.ClassifyBatch(packets)
		resCh <- batchResult{n: len(rs), err: err}
	}()
	// Begin draining while the batch is (very likely) in flight. Whatever
	// the interleaving, the batch was fully written before Shutdown's read
	// deadlines can interrupt a not-yet-started read loop only between
	// requests — a batch being read or classified is answered in full.
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight batch failed during shutdown: %v", res.err)
	}
	if res.n != len(packets) {
		t.Fatalf("in-flight batch got %d responses, want %d", res.n, len(packets))
	}
}
