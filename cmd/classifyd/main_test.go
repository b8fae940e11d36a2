package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
)

// syncBuffer makes run's stdout safe to read while the daemon goroutine
// still writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the classifyd body in a goroutine and returns the bound
// address, the signal channel that stops it, and a channel with its return
// value.
func startDaemon(t *testing.T, args []string) (net.Addr, chan os.Signal, <-chan error, *syncBuffer) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })

	sig := make(chan os.Signal, 1)
	errCh := make(chan error, 1)
	out := &syncBuffer{}
	go func() { errCh <- run(args, sig, out) }()

	select {
	case addr := <-addrCh:
		return addr, sig, errCh, out
	case err := <-errCh:
		t.Fatalf("daemon exited before listening: %v\noutput:\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not start listening within 30s")
	}
	return nil, nil, nil, nil
}

func dialDaemon(t *testing.T, addr net.Addr) *server.ClientV2 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := server.DialV2(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wireRule parses a ClassBench rule line into the form ClientV2.AddRule sends.
func wireRule(t *testing.T, line string) rule.Rule {
	t.Helper()
	r, err := rule.ParseClassBenchLine(line)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGracefulShutdown: SIGTERM must drain in-flight work and return nil
// (exit 0) even while a client stays connected and idle.
func TestGracefulShutdown(t *testing.T) {
	addr, sig, errCh, out := startDaemon(t, []string{
		"-family", "acl1", "-size", "150", "-algo", "hicuts", "-listen", "127.0.0.1:0",
	})
	client := dialDaemon(t, addr)

	// Serve a batch fully, then leave the connection open and idle.
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 150, 1)
	var packets []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 500, 3) {
		packets = append(packets, e.Key)
	}
	results, err := client.ClassifyBatch(packets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(packets) {
		t.Fatalf("batch answered %d/%d packets", len(results), len(packets))
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exited non-cleanly: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not shut down within 10s of SIGTERM\noutput:\n%s", out.String())
	}
}

// TestArtifactWarmStart is the acceptance test for `classifyd -artifact`:
// the artifact's backend name is deliberately one that is NOT in the engine
// registry, so if any backend build or train path were invoked the daemon
// could not start at all — serving the first lookup correctly proves the
// warm start runs build-free.
func TestArtifactWarmStart(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 200, 4)
	tr, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cc, err := compiled.Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.ncaf")
	meta := compiled.Metadata{Backend: "warmstart-unregistered-backend", Rules: set.Len(), Binth: 16}
	if err := compiled.SaveFile(path, cc, meta); err != nil {
		t.Fatal(err)
	}

	addr, sig, errCh, out := startDaemon(t, []string{
		"-artifact", path, "-listen", "127.0.0.1:0",
	})
	client := dialDaemon(t, addr)

	// First lookups come straight from the artifact.
	mismatches := 0
	for _, e := range classbench.GenerateTrace(set, 500, 8) {
		want := set.MatchIndex(e.Key)
		_, prio, ok, err := client.Classify(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		got := -1
		if ok {
			got = prio
		}
		if got != want {
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d warm-start lookups diverge from linear search", mismatches)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exited non-cleanly: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s of SIGTERM")
	}
}

// TestDataplaneKillUnderLoad is the shutdown-ordering regression test at
// the daemon level: with the run-to-completion dataplane serving (-cores),
// SIGTERM arrives while clients are streaming batches. The daemon must
// drain — every batch answered before the connection drops is complete and
// correct (loops drain their rings before the engine snapshot is torn
// down) — and exit cleanly with nil.
func TestDataplaneKillUnderLoad(t *testing.T) {
	addr, sig, errCh, out := startDaemon(t, []string{
		"-family", "acl1", "-size", "200", "-algo", "linear",
		"-cores", "2", "-flow-cache", "4096", "-listen", "127.0.0.1:0",
	})
	if !strings.Contains(out.String(), "run-to-completion dataplane enabled") {
		t.Fatalf("daemon did not report the dataplane path:\n%s", out.String())
	}

	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 200, 1)
	var packets []rule.Packet
	for _, e := range classbench.GenerateTrace(set, 256, 3) {
		packets = append(packets, e.Key)
	}
	// Reference answers from the live daemon before the storm: rules do not
	// change during this test, so every later batch must match exactly.
	refClient := dialDaemon(t, addr)
	want, err := refClient.ClassifyBatch(packets)
	if err != nil {
		t.Fatal(err)
	}

	const streamers = 3
	clients := make([]*server.ClientV2, streamers)
	for i := range clients {
		clients[i] = dialDaemon(t, addr)
	}
	var wg sync.WaitGroup
	var batches atomic.Int64
	for _, client := range clients {
		wg.Add(1)
		go func(c *server.ClientV2) {
			defer wg.Done()
			for {
				res, err := c.ClassifyBatch(packets)
				if err != nil {
					// The connection dropped mid-shutdown; batches answered
					// up to here were verified complete.
					return
				}
				if len(res) != len(want) {
					t.Errorf("in-flight batch truncated: %d/%d results", len(res), len(want))
					return
				}
				for i := range res {
					if res[i] != want[i] {
						t.Errorf("in-flight batch wrong at packet %d: %+v want %+v", i, res[i], want[i])
						return
					}
				}
				batches.Add(1)
			}
		}(client)
	}

	// Let the streamers get going, then pull the rug mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for batches.Load() < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("streamers completed only %d batches in 10s", batches.Load())
		}
		time.Sleep(time.Millisecond)
	}
	sig <- syscall.SIGTERM
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exited non-cleanly under load: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not shut down within 10s of SIGTERM under load\noutput:\n%s", out.String())
	}
	wg.Wait()
}

// TestJournalKillRestart is the daemon-level recovery acceptance test:
// serve an artifact with -journal auto, apply live updates through the
// protocol, stop the daemon (via its signal path — nothing rewrites the
// artifact, so recovery must come from the journal alone), restart it on
// the same artifact+journal pair, and verify every acknowledged update is
// live again. True abrupt-death recovery (no Close, torn tails) is covered
// by TestJournalCrashRecovery and the journal torn-tail tests at the
// engine/updater level.
func TestJournalKillRestart(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 200, 4)
	tr, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cc, err := compiled.Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "policy.ncaf")
	meta := compiled.Metadata{Backend: "hicuts", Rules: set.Len(), Binth: 16}
	if err := compiled.SaveFile(path, cc, meta); err != nil {
		t.Fatal(err)
	}

	addr, sig, errCh, out := startDaemon(t, []string{
		"-artifact", path, "-journal", "auto", "-compact-threshold", "-1", "-listen", "127.0.0.1:0",
	})
	client := dialDaemon(t, addr)

	// A top-priority wildcard-ish rule added live: acknowledged means
	// journaled.
	id, _, err := client.AddRule(0, wireRule(t, "@10.0.0.0/8 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.DeleteRule(set.Rule(5).ID); err != nil {
		t.Fatal(err)
	}
	// "Kill": stop the daemon abruptly via its signal path but, unlike a
	// graceful checkpoint, nothing rewrites the artifact — recovery must
	// come from the journal alone.
	sig <- syscall.SIGTERM
	select {
	case <-errCh:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not exit\noutput:\n%s", out.String())
	}

	addr2, sig2, errCh2, out2 := startDaemon(t, []string{
		"-artifact", path, "-journal", "auto", "-compact-threshold", "-1", "-listen", "127.0.0.1:0",
	})
	if !strings.Contains(out2.String(), "2 records replayed") {
		t.Fatalf("restart did not replay the journal:\n%s", out2.String())
	}
	client2 := dialDaemon(t, addr2)
	p, err := rule.ParsePacket("10.9.8.7 1.2.3.4 4321 80 6")
	if err != nil {
		t.Fatal(err)
	}
	gotID, _, ok, err := client2.Classify(p)
	if err != nil || !ok || gotID != id {
		t.Fatalf("replayed rule not served after restart: id=%d ok=%v err=%v want id=%d", gotID, ok, err, id)
	}
	sig2 <- syscall.SIGTERM
	select {
	case err := <-errCh2:
		if err != nil {
			t.Fatalf("restarted daemon exited non-cleanly: %v\noutput:\n%s", err, out2.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restarted daemon did not shut down")
	}
}
