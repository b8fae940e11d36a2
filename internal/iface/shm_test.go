package iface

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
)

// allocShmSet builds the small deterministic classifier the shm tests (and
// the shm alloc gate) serve.
func allocShmSet(t testing.TB) *rule.Set {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(fam, 128, 1)
}

// allocShmPackets draws rule-biased packets against set.
func allocShmPackets(t testing.TB, set *rule.Set, n int) []rule.Packet {
	t.Helper()
	entries := classbench.GenerateTrace(set, n, 7)
	ps := make([]rule.Packet, len(entries))
	for i, e := range entries {
		ps[i] = e.Key
	}
	return ps
}

// newShmPair starts a server over a linear engine plus an attached client in
// a temp dir, cleaning both up at test end.
func newShmPair(t *testing.T, slots int) (*ShmServer, *ShmClient, *engine.Engine, *rule.Set) {
	t.Helper()
	set := allocShmSet(t)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	path := filepath.Join(t.TempDir(), "ring")
	srv, err := NewShmServer(path, eng, ShmServerConfig{Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := OpenShmClient(path, ShmClientConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c, eng, set
}

// TestShmRoundTrip pushes batches of every awkward size through the ring
// and checks each result against the engine classified directly.
func TestShmRoundTrip(t *testing.T) {
	srv, c, eng, set := newShmPair(t, 64)
	ps := allocShmPackets(t, set, 500)
	want := make([]engine.Result, len(ps))
	eng.ClassifyBatch(ps, want)

	for _, size := range []int{1, 2, 31, 32, 33, 64, 65, 500} {
		got := make([]engine.Result, size)
		if err := c.ClassifyBatchInto(ps[:size], got); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for i := 0; i < size; i++ {
			if got[i].OK != want[i].OK || got[i].Rule.ID != want[i].Rule.ID || got[i].Rule.Priority != want[i].Rule.Priority {
				t.Fatalf("size %d: packet %d: ring says id=%d prio=%d ok=%v, engine says id=%d prio=%d ok=%v",
					size, i, got[i].Rule.ID, got[i].Rule.Priority, got[i].OK,
					want[i].Rule.ID, want[i].Rule.Priority, want[i].OK)
			}
		}
	}
	if st := srv.Stats(); st.Packets == 0 || st.Batches == 0 {
		t.Fatalf("server stats empty after traffic: %+v", st)
	}

	// Single-packet path shares the same contract.
	id, prio, ok, err := c.Classify(ps[0])
	if err != nil {
		t.Fatal(err)
	}
	if ok != want[0].OK || id != want[0].Rule.ID || prio != want[0].Rule.Priority {
		t.Fatalf("Classify: got id=%d prio=%d ok=%v, want id=%d prio=%d ok=%v",
			id, prio, ok, want[0].Rule.ID, want[0].Rule.Priority, want[0].OK)
	}
}

// TestShmConcurrentCallers hammers one client from many goroutines. The
// client's mutex must preserve the single-producer ring discipline; run
// under -race this is the iface CI job's main race test.
func TestShmConcurrentCallers(t *testing.T) {
	_, c, eng, set := newShmPair(t, 128)
	ps := allocShmPackets(t, set, 256)
	want := make([]engine.Result, len(ps))
	eng.ClassifyBatch(ps, want)

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]engine.Result, len(ps))
			for r := 0; r < rounds; r++ {
				lo := (w*31 + r*17) % (len(ps) - 1)
				hi := lo + 1 + (w+r)%(len(ps)-lo)
				if err := c.ClassifyBatchInto(ps[lo:hi], out[:hi-lo]); err != nil {
					errc <- err
					return
				}
				for i := lo; i < hi; i++ {
					if g := out[i-lo]; g.OK != want[i].OK || g.Rule.ID != want[i].Rule.ID {
						t.Errorf("worker %d round %d: packet %d: id=%d ok=%v, want id=%d ok=%v",
							w, r, i, g.Rule.ID, g.OK, want[i].Rule.ID, want[i].OK)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestShmServerClose pins the shutdown contract: a client blocked on (or
// arriving after) a closed ring gets ErrShmClosed, not a stall, and the
// ring file is removed.
func TestShmServerClose(t *testing.T) {
	set := allocShmSet(t)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	path := filepath.Join(t.TempDir(), "ring")
	srv, err := NewShmServer(path, eng, ShmServerConfig{Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenShmClient(path, ShmClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("ring file still present after Close: %v", statErr)
	}
	ps := allocShmPackets(t, set, 4)
	out := make([]engine.Result, len(ps))
	if err := c.ClassifyBatchInto(ps, out); !errors.Is(err, ErrShmClosed) {
		t.Fatalf("after server close: err = %v, want ErrShmClosed", err)
	}

	// Closing the client makes further calls fail locally.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.ClassifyBatchInto(ps, out); !errors.Is(err, ErrShmClosed) {
		t.Fatalf("after client close: err = %v, want ErrShmClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// readyRegion fabricates a ready 64-slot region by hand — a server whose
// handler died, or one the test plays itself — and returns its path.
func readyRegion(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ring")
	const slots = 64
	hdr := make([]byte, shmFileSize(slots))
	binary.LittleEndian.PutUint64(hdr[shmOffMagic:], shmMagic)
	binary.LittleEndian.PutUint32(hdr[shmOffVersion:], shmVersion)
	binary.LittleEndian.PutUint32(hdr[shmOffSlots:], slots)
	binary.LittleEndian.PutUint32(hdr[shmOffState:], shmStateReady)
	if err := os.WriteFile(path, hdr, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShmStalledPeer pins the watchdog: a region whose serving process is
// gone (state still ready, nobody draining) surfaces ErrShmStalled after
// the timeout instead of blocking forever.
func TestShmStalledPeer(t *testing.T) {
	c, err := OpenShmClient(readyRegion(t), ShmClientConfig{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]engine.Result, 1)
	if err := c.ClassifyBatchInto([]rule.Packet{{SrcIP: 1}}, out); !errors.Is(err, ErrShmStalled) {
		t.Fatalf("err = %v, want ErrShmStalled", err)
	}
}

// TestShmLateReplyNotTaken: a call that stalled after publishing its
// request leaves the stream mid-exchange. When the serving side then
// answers late, that well-formed reply must not be read as the next call's
// answer — every later call fails with the stall instead.
func TestShmLateReplyNotTaken(t *testing.T) {
	c, err := OpenShmClient(readyRegion(t), ShmClientConfig{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]engine.Result, 1)
	if err := c.ClassifyBatchInto([]rule.Packet{{SrcIP: 1}}, out); !errors.Is(err, ErrShmStalled) {
		t.Fatalf("first call: err = %v, want ErrShmStalled", err)
	}

	// Play the late server: take the request, answer it with rule 42.
	srv := newShmConn(&c.m, false, 0)
	req, err := server.ReadFrame(srv)
	if err != nil || req.Op != server.OpBatch {
		t.Fatalf("request on the ring: op %d, err %v", req.Op, err)
	}
	reply := binary.LittleEndian.AppendUint32(nil, 1)
	reply = append(reply, 1)                            // matched
	reply = binary.LittleEndian.AppendUint32(reply, 42) // rule ID
	reply = binary.LittleEndian.AppendUint32(reply, 42) // priority
	if err := server.WriteFrame(srv, server.Frame{Op: server.OpBatchResult, Payload: reply}); err != nil {
		t.Fatal(err)
	}

	if err := c.ClassifyBatchInto([]rule.Packet{{SrcIP: 2}}, out); !errors.Is(err, ErrShmStalled) {
		t.Fatalf("call after the stall: err = %v (result %+v), want ErrShmStalled", err, out[0])
	}
	if _, _, _, err := c.Classify(rule.Packet{SrcIP: 3}); !errors.Is(err, ErrShmStalled) {
		t.Fatalf("Classify after the stall: err = %v, want ErrShmStalled", err)
	}
}

// TestShmGarbageClosesRing: bytes on the request ring that are not a frame
// get the frame handler's OpError reply, and the handler stops serving the
// region, so the client's next call fails with ErrShmClosed at once instead
// of stalling. Close still succeeds and removes the file.
func TestShmGarbageClosesRing(t *testing.T) {
	srv, c, _, set := newShmPair(t, 64)
	raw := newShmConn(&c.m, true, time.Second)
	if _, err := raw.Write([]byte("stats\n")); err != nil {
		t.Fatal(err)
	}
	f, err := server.ReadFrame(raw)
	if err != nil || f.Op != server.OpError {
		t.Fatalf("answer to garbage: op %d %q, err %v; want an OpError frame", f.Op, f.Payload, err)
	}

	start := time.Now()
	out := make([]engine.Result, 4)
	if err := c.ClassifyBatchInto(allocShmPackets(t, set, 4), out); !errors.Is(err, ErrShmClosed) {
		t.Fatalf("call after garbage: err = %v, want ErrShmClosed", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("call after garbage took %v, want well under the 10 s stall timeout", d)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after garbage: %v", err)
	}
	if _, err := os.Stat(srv.Path()); !os.IsNotExist(err) {
		t.Fatalf("ring file still present after Close: %v", err)
	}
}

// slowClassifier delays every batch, announcing it on entered first.
type slowClassifier struct {
	*engine.Engine
	entered chan struct{}
	delay   time.Duration
}

func (s slowClassifier) ClassifyBatch(ps []rule.Packet, out []engine.Result) {
	s.entered <- struct{}{}
	time.Sleep(s.delay)
	s.Engine.ClassifyBatch(ps, out)
}

// TestShmCloseDrains pins TCP's drain contract on the ring: a batch being
// classified when Close is called is answered in full before the region
// closes, and Close returns within its drain bound.
func TestShmCloseDrains(t *testing.T) {
	set := allocShmSet(t)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const delay = 200 * time.Millisecond
	slow := slowClassifier{Engine: eng, entered: make(chan struct{}, 1), delay: delay}
	// 100 packets: the request frame is larger than the 1 KiB ring.
	srv, err := NewShmServer(filepath.Join(t.TempDir(), "ring"), slow, ShmServerConfig{Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := OpenShmClient(srv.Path(), ShmClientConfig{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ps := allocShmPackets(t, set, 100)
	got := make([]engine.Result, len(ps))
	errc := make(chan error, 1)
	go func() { errc <- c.ClassifyBatchInto(ps, got) }()
	<-slow.entered
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d >= shmDrainTimeout {
		t.Fatalf("Close took %v, want under the %v drain bound", d, shmDrainTimeout)
	}
	if err := <-errc; err != nil {
		t.Fatalf("batch in flight at Close: %v", err)
	}
	want := make([]engine.Result, len(ps))
	eng.ClassifyBatch(ps, want)
	for i := range ps {
		if got[i].OK != want[i].OK || got[i].Rule.ID != want[i].Rule.ID {
			t.Fatalf("packet %d: ring id=%d ok=%v, engine id=%d ok=%v", i, got[i].Rule.ID, got[i].OK, want[i].Rule.ID, want[i].OK)
		}
	}
	if err := c.ClassifyBatchInto(ps[:1], got); !errors.Is(err, ErrShmClosed) {
		t.Fatalf("call after Close: err = %v, want ErrShmClosed", err)
	}
}

// TestShmHandshakeValidation pins the fail-fast paths: structurally wrong
// files are rejected without waiting out the attach timeout.
func TestShmHandshakeValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mutate func(hdr []byte)) string {
		path := filepath.Join(dir, name)
		hdr := make([]byte, shmFileSize(64))
		binary.LittleEndian.PutUint64(hdr[shmOffMagic:], shmMagic)
		binary.LittleEndian.PutUint32(hdr[shmOffVersion:], shmVersion)
		binary.LittleEndian.PutUint32(hdr[shmOffSlots:], 64)
		binary.LittleEndian.PutUint32(hdr[shmOffState:], shmStateReady)
		mutate(hdr)
		if err := os.WriteFile(path, hdr, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}

	fast := []struct {
		name   string
		mutate func([]byte)
	}{
		{"bad version", func(h []byte) { binary.LittleEndian.PutUint32(h[shmOffVersion:], 99) }},
		{"version 1 descriptor rings", func(h []byte) { binary.LittleEndian.PutUint32(h[shmOffVersion:], 1) }},
		{"slots not a power of two", func(h []byte) { binary.LittleEndian.PutUint32(h[shmOffSlots:], 63) }},
		{"slots zero", func(h []byte) { binary.LittleEndian.PutUint32(h[shmOffSlots:], 0) }},
		{"slots absurd", func(h []byte) { binary.LittleEndian.PutUint32(h[shmOffSlots:], 1<<25) }},
	}
	for _, tc := range fast {
		path := write("f_"+tc.name, tc.mutate)
		start := time.Now()
		_, err := OpenShmClient(path, ShmClientConfig{Timeout: 5 * time.Second})
		if !errors.Is(err, ErrShmHandshake) {
			t.Fatalf("%s: err = %v, want ErrShmHandshake", tc.name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s: structural rejection took %v, want fail-fast", tc.name, d)
		}
	}

	// Retryable shapes (absent file, bad magic, not-ready state) wait out
	// the timeout — the server might still be coming up — then fail.
	slow := []struct {
		name string
		path func() string
	}{
		{"absent", func() string { return filepath.Join(dir, "nonexistent") }},
		{"bad magic", func() string {
			return write("s_magic", func(h []byte) { binary.LittleEndian.PutUint64(h[shmOffMagic:], 7) })
		}},
		{"not ready", func() string {
			return write("s_state", func(h []byte) { binary.LittleEndian.PutUint32(h[shmOffState:], shmStateInit) })
		}},
	}
	for _, tc := range slow {
		if _, err := OpenShmClient(tc.path(), ShmClientConfig{Timeout: 50 * time.Millisecond}); err == nil {
			t.Fatalf("%s: attach unexpectedly succeeded", tc.name)
		}
	}
}

// TestShmSlotRounding pins that requested slot counts round up to a power
// of two and the client sees the same capacity.
func TestShmSlotRounding(t *testing.T) {
	set := allocShmSet(t)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	path := filepath.Join(t.TempDir(), "ring")
	srv, err := NewShmServer(path, eng, ShmServerConfig{Slots: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Slots() != 128 {
		t.Fatalf("server slots = %d, want 128", srv.Slots())
	}
	c, err := OpenShmClient(path, ShmClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Slots() != 128 {
		t.Fatalf("client slots = %d, want 128", c.Slots())
	}
}

// TestDifferentialShmVsTCP holds the ring to TCP over the whole protocol:
// the same script — ping, classify, batches of 1, 257 and 5 000 packets, an
// insert at the top, a classify it wins, its delete, stats, and frames
// addressed to an unknown table — runs through a server.ClientV2 on each
// transport, and every answer and error text must be identical. The two
// servers front twin engines built from one rule set, so inserted IDs,
// versions and stats lines match too. The 8 KiB ring is smaller than the
// 5 000-packet frame (65 KB): the frame wraps and its writer blocks mid-frame.
func TestDifferentialShmVsTCP(t *testing.T) {
	fam, err := classbench.FamilyByName("fw1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 256, 5)
	entries := classbench.GenerateTrace(set, 5000, 13)
	ps := make([]rule.Packet, len(entries))
	for i, e := range entries {
		ps[i] = e.Key
	}
	newEngine := func() *engine.Engine {
		eng, err := engine.NewEngine("linear", set, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}

	tcpSrv := server.New(newEngine())
	addr, err := tcpSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()
	tcp, err := server.DialV2(context.Background(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	ring, err := NewShmServer(filepath.Join(t.TempDir(), "ring"), newEngine(), ShmServerConfig{Slots: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	shm, err := OpenShmClient(ring.Path(), ShmClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer shm.Close()

	// The top rule matches exactly ps[0].
	top := rule.NewWildcardRule(0)
	for _, d := range rule.Dimensions() {
		v := ps[0].Field(d)
		top.Ranges[d] = rule.Range{Lo: v, Hi: v}
	}
	script := func(c *server.ClientV2) []string {
		var log []string
		note := func(step string, v ...any) { log = append(log, step+": "+fmt.Sprint(v...)) }
		note("ping", c.Ping())
		id, prio, ok, err := c.Classify(ps[0])
		note("classify", id, prio, ok, err)
		for _, n := range []int{1, 257, 5000} {
			res, err := c.ClassifyBatch(ps[:n])
			var b strings.Builder
			for _, r := range res {
				fmt.Fprintf(&b, "%d/%d/%v ", r.Rule.ID, r.Rule.Priority, r.OK)
			}
			note(fmt.Sprintf("batch %d", n), b.String(), err)
		}
		newID, version, err := c.AddRule(0, top)
		note("insert", newID, version, err)
		id, prio, ok, err = c.Classify(ps[0])
		note("classify after insert", id, prio, ok, err)
		if id != newID || !ok {
			t.Errorf("inserted top rule %d did not win: classify says %d (ok=%v)", newID, id, ok)
		}
		version, err = c.DeleteRule(newID)
		note("delete", version, err)
		st, err := c.Stats()
		note("stats", st, err)
		c.UseTable(7)
		_, _, _, err = c.Classify(ps[0])
		note("classify unknown table", err)
		_, err = c.ClassifyBatch(ps[:3])
		note("batch unknown table", err)
		c.UseTable(0)
		note("ping after errors", c.Ping())
		return log
	}
	viaTCP, viaShm := script(tcp), script(shm.cli)
	for i := range viaTCP {
		if viaTCP[i] != viaShm[i] {
			t.Fatalf("step %d differs:\ntcp: %.300s\nshm: %.300s", i, viaTCP[i], viaShm[i])
		}
	}
}
