package iface

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"neurocuts/internal/engine"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// TestZeroAllocPcapRead pins the pcap replay steady state at zero heap
// allocations per ReadBatch, so replaying a multi-gigabyte capture costs no
// GC: the window and the record header are reused, keys are decoded into the
// caller's slots, and the buffer for records that are not wholly inside the
// window stops growing once it has held the largest of them. A 64-key batch
// of the trace is longer than the window, so each measured call refills it
// and copies a straddling record; the jumbo capture takes the
// larger-than-window path on every record.
func TestZeroAllocPcapRead(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under -race; the alloc gate runs in the non-race CI pass")
	}
	jumbo := append(buildFrame(t, rule.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoUDP}), make([]byte, 9000)...)
	jumbos := make([][]byte, 256) // 2.3 MB: 2 warm-up and 101 measured batches of 2
	for i := range jumbos {
		jumbos[i] = jumbo
	}
	for _, tc := range []struct {
		name  string
		data  []byte
		batch int
	}{
		{"window", tracePcap(t, testTrace(t, 8000)), 64},
		{"larger than the window", buildPcap(pcapVariants[0], jumbos), 2},
	} {
		r, err := NewPcapReader(bytes.NewReader(tc.data), PcapConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Warm up: the first record outside the window allocates its buffer.
		ps := make([]rule.Packet, tc.batch)
		for i := 0; i < 2; i++ {
			if _, err := r.ReadBatch(ps); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if n, err := r.ReadBatch(ps); err != nil || n != len(ps) {
				t.Fatalf("%s: ReadBatch = (%d, %v)", tc.name, n, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: pcap ReadBatch allocates %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestZeroAllocWritePacket pins PcapWriter.WritePacket at zero heap
// allocations: the frame is synthesised in the writer's scratch buffer.
func TestZeroAllocWritePacket(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under -race; the alloc gate runs in the non-race CI pass")
	}
	pw, err := NewPcapWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	entries := mixedTrace()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := pw.WritePacket(uint64(i), entries[i%len(entries)].Key); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("PcapWriter.WritePacket allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestZeroAllocShmClient pins the shared-memory batch path at zero heap
// allocations per ClassifyBatchInto call. The backing engine is linear —
// itself allocation-free — because AllocsPerRun counts every allocation in
// the process, including the server loop running concurrently.
func TestZeroAllocShmClient(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under -race; the alloc gate runs in the non-race CI pass")
	}
	set := allocShmSet(t)
	eng, err := engine.NewEngine("linear", set, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	path := filepath.Join(t.TempDir(), "ring")
	srv, err := NewShmServer(path, eng, ShmServerConfig{Slots: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := OpenShmClient(path, ShmClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ps := allocShmPackets(t, set, 200) // 2.6 KB frames: every other call wraps the 4 KiB ring
	out := make([]engine.Result, len(ps))
	if err := c.ClassifyBatchInto(ps, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.ClassifyBatchInto(ps, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("shm ClassifyBatchInto allocates %.1f allocs/op, want 0", allocs)
	}
}
