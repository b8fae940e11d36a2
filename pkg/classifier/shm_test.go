package classifier_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/pkg/classifier"
)

// TestSharedMemoryTransport opens an SDK handle over a serving process's
// ring (simulated in-process) and checks data-plane equivalence with a
// local handle plus the control-plane ErrNotSupported contract.
func TestSharedMemoryTransport(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 300, 1)
	eng, err := engine.NewEngine("hicuts", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ringPath := filepath.Join(t.TempDir(), "ring")
	srv, err := iface.NewShmServer(ringPath, eng, iface.ShmServerConfig{Slots: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := classifier.Open(nil, classifier.WithSharedMemory(ringPath, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	entries := classbench.GenerateTrace(set, 2000, 9)
	keys := make([]classifier.Packet, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	ctx := context.Background()
	got, err := c.ClassifyBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]engine.Result, len(keys))
	eng.ClassifyBatch(keys, want)
	for i := range keys {
		if got[i].OK != want[i].OK || got[i].Rule.ID != want[i].Rule.ID || got[i].Rule.Priority != want[i].Rule.Priority {
			t.Fatalf("packet %d: shm id=%d prio=%d ok=%v, direct id=%d prio=%d ok=%v",
				i, got[i].Rule.ID, got[i].Rule.Priority, got[i].OK,
				want[i].Rule.ID, want[i].Rule.Priority, want[i].OK)
		}
	}

	// Single-packet path carries the same identity-only contract.
	match, ok, err := c.Classify(ctx, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if ok != want[0].OK || match.ID != want[0].Rule.ID || match.Priority != want[0].Rule.Priority {
		t.Fatalf("Classify: got id=%d prio=%d ok=%v, want id=%d prio=%d ok=%v",
			match.ID, match.Priority, ok, want[0].Rule.ID, want[0].Rule.Priority, want[0].OK)
	}

	// Cancellation still applies before the ring is touched.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := c.Classify(cancelled, keys[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Classify: err = %v, want context.Canceled", err)
	}

	// Control-plane operations belong to the serving process.
	if _, err := c.Insert(0, classifier.Rule{}); !errors.Is(err, classifier.ErrNotSupported) {
		t.Fatalf("Insert: err = %v, want ErrNotSupported", err)
	}
	if _, err := c.Delete(1); !errors.Is(err, classifier.ErrNotSupported) {
		t.Fatalf("Delete: err = %v, want ErrNotSupported", err)
	}
	if err := c.Save("x"); !errors.Is(err, classifier.ErrNotSupported) {
		t.Fatalf("Save: err = %v, want ErrNotSupported", err)
	}
	if _, err := c.Load("x"); !errors.Is(err, classifier.ErrNotSupported) {
		t.Fatalf("Load: err = %v, want ErrNotSupported", err)
	}
	if rs := c.Rules(); rs != nil {
		t.Fatal("Rules over shm returned a rule set")
	}
	if b := c.Backend(); b != "shm" {
		t.Fatalf("Backend = %q, want \"shm\"", b)
	}
	if st := c.Stats(); st.Backend != "shm" || st.Rules != 0 {
		t.Fatalf("Stats = %+v, want backend-label-only", st)
	}
}

// TestSharedMemoryOptionValidation pins Open's rejections for the transport
// mode.
func TestSharedMemoryOptionValidation(t *testing.T) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 10, 1)
	if _, err := classifier.Open(set, classifier.WithSharedMemory("/tmp/nope", time.Second)); err == nil {
		t.Fatal("Open with rules + WithSharedMemory succeeded")
	}
	if _, err := classifier.Open(nil,
		classifier.WithSharedMemory("/tmp/nope", time.Second),
		classifier.WithFlowCache(4096)); err == nil {
		t.Fatal("Open with engine options + WithSharedMemory succeeded")
	}
	if _, err := classifier.Open(nil,
		classifier.WithSharedMemory("/tmp/nope", time.Second),
		classifier.WithTelemetry()); err == nil {
		t.Fatal("Open with WithTelemetry + WithSharedMemory succeeded")
	}
	// An absent ring fails after the attach timeout, not by hanging.
	start := time.Now()
	if _, err := classifier.Open(nil,
		classifier.WithSharedMemory(filepath.Join(t.TempDir(), "absent"), 50*time.Millisecond)); err == nil {
		t.Fatal("Open against an absent ring succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("absent-ring Open took %v, want bounded by the timeout", d)
	}
}
