package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
)

// writeTestPcap renders a rule-biased trace for the given family/size/seed
// as a pcap file and returns its path plus the entries.
func writeTestPcap(t *testing.T, family string, size, packets int) (string, []packet.TraceEntry) {
	t.Helper()
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, size, 1)
	entries := classbench.GenerateTrace(set, packets, 7)
	path := filepath.Join(t.TempDir(), "trace.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := iface.WriteTracePcap(f, entries); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, entries
}

// TestPcapReplayMode drives the daemon body end to end in replay mode: the
// same flags a user passes, a real pcap on disk, and the summary line must
// account for every packet.
func TestPcapReplayMode(t *testing.T) {
	path, entries := writeTestPcap(t, "acl1", 200, 700)
	out := &syncBuffer{}
	sig := make(chan os.Signal, 1)
	err := run([]string{"-family", "acl1", "-size", "200", "-algo", "hicuts", "-pcap", path}, sig, out)
	if err != nil {
		t.Fatalf("replay run: %v\noutput:\n%s", err, out.String())
	}
	if s := out.String(); !strings.Contains(s, "ingested 700 packets") {
		t.Fatalf("summary does not account for all %d packets:\n%s", len(entries), s)
	}
}

// TestPcapOutFixture pins capture-to-fixture: replaying with -pcap-out
// produces a pcap whose decode yields the same 5-tuples as the input.
func TestPcapOutFixture(t *testing.T) {
	path, entries := writeTestPcap(t, "acl1", 100, 250)
	fixture := filepath.Join(t.TempDir(), "fixture.pcap")
	out := &syncBuffer{}
	err := run([]string{"-family", "acl1", "-size", "100", "-pcap", path, "-pcap-out", fixture}, make(chan os.Signal, 1), out)
	if err != nil {
		t.Fatalf("replay with -pcap-out: %v\noutput:\n%s", err, out.String())
	}
	src, err := iface.OpenPcap(fixture, iface.PcapConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var got []rule.Packet
	ps := make([]rule.Packet, 64)
	for {
		n, err := src.ReadBatch(ps)
		got = append(got, ps[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(entries) {
		t.Fatalf("fixture decodes to %d packets, want %d", len(got), len(entries))
	}
	for i := range got {
		if want := iface.CanonicalKey(entries[i].Key); got[i] != want {
			t.Fatalf("fixture packet %d = %+v, want %+v", i, got[i], want)
		}
	}
}

// failingFixture accepts every write and fails its close, the last
// write-back of a -pcap-out file.
type failingFixture struct{ bytes.Buffer }

func (*failingFixture) Close() error { return errors.New("close: no space left on device") }

// TestPcapOutWriteBackFailure: a -pcap-out fixture whose close fails fails
// the run instead of reporting it written.
func TestPcapOutWriteBackFailure(t *testing.T) {
	path, _ := writeTestPcap(t, "acl1", 100, 250)
	defer func(orig func(string) (io.WriteCloser, error)) { createFixture = orig }(createFixture)
	createFixture = func(string) (io.WriteCloser, error) { return &failingFixture{}, nil }
	out := &syncBuffer{}
	err := run([]string{"-family", "acl1", "-size", "100", "-pcap", path, "-pcap-out", "fixture.pcap"}, make(chan os.Signal, 1), out)
	if err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("run = %v, want the fixture's close error\noutput:\n%s", err, out.String())
	}
	if s := out.String(); strings.Contains(s, "wrote 250 packets") {
		t.Fatalf("a fixture that failed to close was reported written:\n%s", s)
	}
}

// TestShmServeMode starts the daemon with a shared-memory ring alongside
// TCP and checks that the ring and wire protocol v2 return identical
// results for the same packets.
func TestShmServeMode(t *testing.T) {
	ringPath := filepath.Join(t.TempDir(), "ring")
	addr, sig, errCh, out := startDaemon(t, []string{
		"-family", "acl1", "-size", "300", "-algo", "hicuts",
		"-listen", "127.0.0.1:0", "-shm", ringPath, "-shm-slots", "256",
	})

	shm, err := iface.OpenShmClient(ringPath, iface.ShmClientConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("attach to ring: %v\noutput:\n%s", err, out.String())
	}
	defer shm.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tcp, err := server.DialV2(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 300, 1)
	entries := classbench.GenerateTrace(set, 1000, 9)
	ps := make([]rule.Packet, len(entries))
	for i, e := range entries {
		ps[i] = e.Key
	}
	viaShm := make([]engine.Result, len(ps))
	if err := shm.ClassifyBatchInto(ps, viaShm); err != nil {
		t.Fatal(err)
	}
	viaTCP, err := tcp.ClassifyBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		a, b := viaShm[i], viaTCP[i]
		if a.OK != b.OK || a.Rule.ID != b.Rule.ID || a.Rule.Priority != b.Rule.Priority {
			t.Fatalf("packet %d: shm id=%d prio=%d ok=%v, tcp id=%d prio=%d ok=%v",
				i, a.Rule.ID, a.Rule.Priority, a.OK, b.Rule.ID, b.Rule.Priority, b.OK)
		}
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if s := out.String(); !strings.Contains(s, "shared-memory ring on "+ringPath) {
		t.Fatalf("missing ring banner:\n%s", s)
	}
	// The ring file is the server's to remove on shutdown.
	if _, err := os.Stat(ringPath); !os.IsNotExist(err) {
		t.Fatalf("ring file still present after shutdown: %v", err)
	}
	// A detached client now fails cleanly rather than stalling.
	if err := shm.ClassifyBatchInto(ps[:1], viaShm); err == nil {
		t.Fatal("classification against a shut-down ring succeeded")
	}
}

// TestIngestFlagValidation pins the flag cross-checks.
func TestIngestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-pcap", "a.pcap", "-capture", "eth0"},
		{"-pcap-out", "out.pcap"},
		{"-tables", "a=family:acl1,size:100", "-shm", "/tmp/ring"},
		{"-tables", "a=family:acl1,size:100", "-pcap", "a.pcap"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, make(chan os.Signal, 1), &buf); err == nil {
			t.Fatalf("run(%v) succeeded, want flag validation error", args)
		}
	}
}

// TestReplayMatchesDirectClassification is the CLI-level differential: the
// replay summary's match count must equal classifying the canonical trace
// keys directly with the same engine configuration.
func TestReplayMatchesDirectClassification(t *testing.T) {
	path, entries := writeTestPcap(t, "ipc1", 150, 800)

	fam, err := classbench.FamilyByName("ipc1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 150, 1)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want := 0
	out := make([]engine.Result, 1)
	for _, e := range entries {
		eng.ClassifyBatch([]rule.Packet{iface.CanonicalKey(e.Key)}, out)
		if out[0].OK {
			want++
		}
	}

	buf := &syncBuffer{}
	err = run([]string{"-family", "ipc1", "-size", "150", "-algo", "linear", "-pcap", path}, make(chan os.Signal, 1), buf)
	if err != nil {
		t.Fatalf("replay: %v\noutput:\n%s", err, buf.String())
	}
	wantLine := fmt.Sprintf("ingested 800 packets (%d matches", want)
	if s := buf.String(); !strings.Contains(s, wantLine) {
		t.Fatalf("summary missing %q:\n%s", wantLine, s)
	}
}
