package server

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"unsafe"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// wireRig is the wire_v2 workload in miniature: an fw1 1k HiCuts engine
// (cheap lookups, so the transport is what a round trip costs) behind a real
// loopback Server, one ClientV2 connection, one 256-packet batch.
func wireRig(tb testing.TB) (*ClientV2, []rule.Packet) {
	tb.Helper()
	fam, err := classbench.FamilyByName("fw1")
	if err != nil {
		tb.Fatal(err)
	}
	set := classbench.Generate(fam, 1000, 1)
	eng, err := engine.NewEngine("hicuts", set, engine.Options{Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	c := dialV2Test(tb, addr.String())
	ps := make([]rule.Packet, 256)
	for i, e := range classbench.GenerateTrace(set, len(ps), 5) {
		ps[i] = e.Key
	}
	return c, ps
}

// TestZeroAllocWireRoundTrip is the transport's allocation gate: once both
// ends' buffers have grown to the connection's working size, a round trip
// allocates nothing at either end. testing.AllocsPerRun counts the whole
// process, so the server's handler goroutine is inside the measurement.
func TestZeroAllocWireRoundTrip(t *testing.T) {
	c, ps := wireRig(t)
	ops := []struct {
		name string
		call func() error
	}{
		{"ClassifyBatch", func() error { _, err := c.ClassifyBatch(ps); return err }},
		{"Classify", func() error { _, _, _, err := c.Classify(ps[0]); return err }},
		{"Ping", c.Ping},
	}
	for _, op := range ops {
		if err := op.call(); err != nil { // the one warm call
			t.Fatalf("%s: %v", op.name, err)
		}
		var failed error
		allocs := testing.AllocsPerRun(200, func() {
			if err := op.call(); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatalf("%s: %v", op.name, failed)
		}
		if allocs != 0 {
			t.Errorf("%s round trip allocates %.2f allocs/op, want 0", op.name, allocs)
		}
	}
}

// BenchmarkWireV2RoundTrip is the transport layer's own micro: the
// TestZeroAllocWireRoundTrip rig, one 256-packet batch per iteration.
func BenchmarkWireV2RoundTrip(b *testing.B) {
	c, ps := wireRig(b)
	if _, err := c.ClassifyBatch(ps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ClassifyBatch(ps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ps)), "ns/pkt")
}

// TestClassifyBatchResultOwnership pins the contract of the slice
// ClassifyBatch returns: it is the client's, reused call to call, intact
// until the next call, contiguous even when the batch is sent in several
// chunks, and never carries rule ranges.
func TestClassifyBatchResultOwnership(t *testing.T) {
	eng, set, addr := startEngineServer(t, "linear")
	c := dialV2Test(t, addr)
	trace := classbench.GenerateTrace(set, MaxBatch+1500, 4)
	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}
	check := func(name string, ps []rule.Packet, got []engine.Result) {
		t.Helper()
		if len(got) != len(ps) {
			t.Fatalf("%s: %d results for %d packets", name, len(got), len(ps))
		}
		for i, res := range got {
			want, ok := eng.Classify(ps[i])
			if res.OK != ok || res.Rule.ID != want.ID || res.Rule.Priority != want.Priority {
				t.Fatalf("%s: packet %d = %+v, want id %d priority %d ok %v", name, i, res, want.ID, want.Priority, ok)
			}
			if res.Rule.Ranges != (rule.Rule{}).Ranges {
				t.Fatalf("%s: packet %d carries ranges %v; the wire has none", name, i, res.Rule.Ranges)
			}
		}
	}

	// More than MaxBatch: two chunks, one contiguous slice.
	big, err := c.ClassifyBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	check("multi-chunk", keys, big)

	first, err := c.ClassifyBatch(keys[:300])
	if err != nil {
		t.Fatal(err)
	}
	check("first", keys[:300], first)
	kept := append([]engine.Result(nil), first...)
	if err := c.Ping(); err != nil { // other ops leave the results alone
		t.Fatal(err)
	}
	if _, _, _, err := c.Classify(keys[0]); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != kept[i] {
			t.Fatalf("result %d changed before the next ClassifyBatch: %+v, was %+v", i, first[i], kept[i])
		}
	}
	second, err := c.ClassifyBatch(keys[1000:1200])
	if err != nil {
		t.Fatal(err)
	}
	check("second", keys[1000:1200], second)
	if unsafe.SliceData(first) != unsafe.SliceData(second) || unsafe.SliceData(big) != unsafe.SliceData(second) {
		t.Error("consecutive ClassifyBatch calls returned different backing arrays; the slice must be the client's own")
	}
}

// TestBatchScratchReuse re-pins what the engine's buffer pool used to
// guarantee, on the per-connection scratch that replaced it: over one
// connection, a small batch after a large one gets exactly its own results
// and no stale match, and an OpError reply leaves the next batch correct.
func TestBatchScratchReuse(t *testing.T) {
	// One rule matching one source address and no default rule, so a miss
	// is really a miss.
	r := rule.NewWildcardRule(0)
	r.Ranges[rule.DimSrcIP] = rule.Range{Lo: 10, Hi: 10}
	eng, err := engine.NewEngine("linear", rule.NewSet([]rule.Rule{r}), engine.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	c := dialV2Test(t, addr.String())

	batch := func(n int, src uint32) []rule.Packet {
		ps := make([]rule.Packet, n)
		for i := range ps {
			ps[i] = rule.Packet{SrcIP: src, DstIP: uint32(i)}
		}
		return ps
	}
	expect := func(name string, ps []rule.Packet, match bool) {
		t.Helper()
		got, err := c.ClassifyBatch(ps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(ps) {
			t.Fatalf("%s: %d results for %d packets", name, len(got), len(ps))
		}
		for i, res := range got {
			if res.OK != match {
				t.Fatalf("%s: packet %d: OK=%v, want %v (%+v)", name, i, res.OK, match, res)
			}
		}
	}
	// 2 000 matches (past maxScratchBatch: the one-off path), 1 000 matches
	// (grows the kept scratch), then 4 misses through the same scratch.
	expect("2000 matches", batch(2000, 10), true)
	expect("1000 matches", batch(1000, 10), true)
	expect("4 misses", batch(4, 11), false)

	// A bad count and an unknown table are answered with OpError; the
	// connection and its scratch stay good.
	if _, err := c.roundTrip(binary.LittleEndian.AppendUint32(c.begin(OpBatch), MaxBatch+1)); err == nil || !strings.Contains(err.Error(), "batch size must be in") {
		t.Fatalf("oversized count: err = %v", err)
	}
	expect("3 matches after a bad count", batch(3, 10), true)
	c.UseTable(7)
	if _, err := c.ClassifyBatch(batch(5, 10)); err == nil || !strings.Contains(err.Error(), "table 7") {
		t.Fatalf("unknown table: err = %v", err)
	}
	c.UseTable(0)
	expect("6 misses after an unknown table", batch(6, 11), false)
	expect("6 matches", batch(6, 10), true)
}

// TestClassifyBatchChecksEachChunkCount serves ClassifyBatch from a
// hand-rolled listener that answers each chunk with a well-formed response
// carrying the wrong number of results. The old client compared only the
// total, so too many in one chunk and too few in the next passed with every
// answer after the first chunk misaligned.
func TestClassifyBatchChecksEachChunkCount(t *testing.T) {
	for _, tc := range []struct {
		name   string
		deltas []int // added to each chunk's count, in order
		want   string
	}{
		{"one too many", []int{+1}, "257 results for 256 packets"},
		{"one too few", []int{-1}, "255 results for 256 packets"},
		{"totals agree", []int{+1, -1}, "65537 results for 65536 packets"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				// Serves until the client hangs up, however many chunks it
				// sends before it notices.
				for _, d := range tc.deltas {
					req, err := ReadFrame(conn)
					if err != nil {
						return
					}
					n := int(binary.LittleEndian.Uint32(req.Payload[:4])) + d
					resp := binary.LittleEndian.AppendUint32(nil, uint32(n))
					resp = append(resp, make([]byte, n*packedResultLen)...)
					if err := WriteFrame(conn, Frame{Op: OpBatchResult, Payload: resp}); err != nil {
						t.Errorf("listener: %v", err)
						return
					}
				}
			}()
			c := dialV2Test(t, ln.Addr().String())
			n := 256
			if len(tc.deltas) > 1 {
				n = MaxBatch + 256
			}
			_, err = c.ClassifyBatch(make([]rule.Packet, n))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one naming %q", err, tc.want)
			}
			c.Close()
			<-done
		})
	}
}
