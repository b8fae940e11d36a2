package server

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// frameSeeds is FuzzFrame's seed corpus, shared with the decoder
// equivalence test (TestReadFrameMatchesReference).
func frameSeeds() [][]byte {
	return [][]byte{
		AppendFrame(nil, Frame{Op: OpPing}),
		AppendFrame(nil, Frame{Op: OpClassify, Table: 3, Payload: make([]byte, packedPacketLen)}),
		AppendFrame(nil, Frame{Op: OpError, Table: 0xFFFFFFFF, Payload: []byte("boom")}),
		{0xF2, 'N', 'C', '2'},
		[]byte("batch 3\n"),
	}
}

// FuzzFrame fuzzes the frame decoder: arbitrary bytes must never panic,
// and any frame the decoder accepts must re-encode to an equivalent frame
// (decode is the inverse of encode on the accepted set).
func FuzzFrame(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		reencoded := AppendFrame(nil, fr)
		fr2, err := ReadFrame(bytes.NewReader(reencoded))
		if err != nil {
			t.Fatalf("re-encoded accepted frame rejected: %v", err)
		}
		if fr2.Op != fr.Op || fr2.Table != fr.Table || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("frame did not round-trip: %+v vs %+v", fr, fr2)
		}
	})
}

// fuzzSrv is a process-wide server for FuzzFirstBytes: built once, it
// serves a tiny engine so fuzz inputs exercise the real connection handler
// end to end.
var (
	fuzzServerOnce sync.Once
	fuzzSrv        *Server
)

func fuzzServerInit() {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		panic(err)
	}
	set := classbench.Generate(fam, 30, 1)
	eng, err := engine.NewEngine("linear", set, engine.Options{Shards: 1})
	if err != nil {
		panic(err)
	}
	fuzzSrv = New(eng)
	// Keep stalled fuzz inputs from dragging the fuzzing loop.
	fuzzSrv.BatchReadTimeout = 200 * time.Millisecond
}

// FuzzFirstBytes throws arbitrary first bytes at a served connection: the
// handler must terminate without panicking or hanging, whatever the split
// between text, framing and garbage, and an input that does not begin with
// a valid frame must never be answered with anything but OpError.
func FuzzFirstBytes(f *testing.F) {
	f.Add([]byte("1 2 3 4 5\n"))
	f.Add([]byte("batch 2\n1 2 3 4 5\n6 7 8 9 10\n"))
	f.Add([]byte("stats\nquit\n"))
	f.Add(AppendFrame(nil, Frame{Op: OpPing}))
	f.Add(AppendFrame(nil, Frame{Op: OpClassify, Payload: appendPacket(nil, rule.Packet{SrcIP: 1})}))
	f.Add(append(AppendFrame(nil, Frame{Op: OpListTables}), []byte("trailing garbage")...))
	f.Add([]byte{0xF2})
	f.Add([]byte{0xF2, 'N', 'C', '2', 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzServerOnce.Do(fuzzServerInit)
		client, server := net.Pipe()
		sc := &servedConn{Conn: server}
		done := make(chan struct{})
		go func() {
			defer close(done)
			fuzzSrv.handle(sc)
		}()
		// Feed the input and close the write side; drain whatever the
		// server answers so its writes never block the pipe.
		go func() {
			client.SetWriteDeadline(time.Now().Add(2 * time.Second))
			client.Write(data)
			time.Sleep(2 * time.Millisecond)
			client.Close()
		}()
		answer, _ := io.ReadAll(client) // ends when either side closes the pipe
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("handler did not terminate for input %q", data)
		}
		if _, err := ReadFrame(bytes.NewReader(data)); err != nil {
			if first, err := ReadFrame(bytes.NewReader(answer)); err == nil && first.Op != OpError {
				t.Fatalf("input %q is not a frame but was answered with op %d", data, first.Op)
			}
		}
	})
}
