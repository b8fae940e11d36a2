package server

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// startTimeoutServer serves a small engine with a short batch-body deadline
// and returns the server for direct control.
func startTimeoutServer(t *testing.T, timeout time.Duration) (*Server, string) {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 100, 1)
	eng, err := engine.NewEngine("linear", set, engine.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	srv.BatchReadTimeout = timeout
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Registered before any client dials, so it runs after their cleanups:
	// Close waits for handlers, and idle handlers only exit when their
	// client hangs up.
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// TestTextClientRefusedOnFirstByte: a peer that opens with anything but the
// frame magic (a client of the removed v1 text protocol) sends fewer bytes
// than a frame header and then waits for an answer. It must get exactly one
// OpError frame and EOF as soon as its first byte is read. The server's body
// deadline is left at the 30 s default, so this test's 5 s read deadline
// fires only if the server waited for a full header.
func TestTextClientRefusedOnFirstByte(t *testing.T) {
	_, addr := startTimeoutServer(t, 0)
	for _, text := range []string{"stats\n", "1 2 3 4 5\n", "batch 2\n"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(text)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("%q: no well-formed frame in answer: %v", text, err)
		}
		if f.Op != OpError || !strings.Contains(string(f.Payload), "v1 text protocol was removed") {
			t.Errorf("%q: answered op %d %q, want OpError naming the removed protocol", text, f.Op, f.Payload)
		}
		if _, err := ReadFrame(conn); err != io.EOF {
			t.Errorf("%q: after the error frame: %v, want EOF", text, err)
		}
		conn.Close()
	}
}

// TestStalledV2FrameReaderCannotPinWorker is the regression test for the
// body deadline: a frame header promising a payload that never arrives must
// have its connection cut after BatchReadTimeout — freeing the handler
// goroutine and the buffers it holds — while the server keeps serving other
// clients.
func TestStalledV2FrameReaderCannotPinWorker(t *testing.T) {
	_, addr := startTimeoutServer(t, 150*time.Millisecond)

	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// A valid header for a 100-byte payload, but only the header is sent.
	full := AppendFrame(nil, Frame{Op: OpBatch, Payload: make([]byte, 100)})
	if _, err := stalled.Write(full[:frameHeaderLen]); err != nil {
		t.Fatal(err)
	}
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		// Whatever the server may emit (an error frame), the connection must
		// end; a timeout on OUR read means the handler kept waiting for the
		// body past its deadline.
		if _, err := stalled.Read(buf); err != nil {
			if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				t.Fatal("server kept the stalled v2 connection open past its body deadline")
			}
			break // closed by the server: the regression is fixed
		}
	}

	// The server still serves fresh v2 connections.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialV2(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("healthy v2 client broken after stall: %v", err)
	}
}

// TestIdleConnectionOutlivesBatchTimeout pins the deadline's scope: it must
// only cover a started request's body, never an idle connection waiting for
// its next request.
func TestIdleConnectionOutlivesBatchTimeout(t *testing.T) {
	_, addr := startTimeoutServer(t, 100*time.Millisecond)
	c := dialV2Test(t, addr)
	if _, _, _, err := c.Classify(rule.Packet{SrcIP: 1}); err != nil {
		t.Fatal(err)
	}
	// Sit idle well past the batch timeout, then issue another request on
	// the same connection.
	time.Sleep(400 * time.Millisecond)
	if _, _, _, err := c.Classify(rule.Packet{SrcIP: 1}); err != nil {
		t.Fatalf("idle connection was killed by the batch-body deadline: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}
