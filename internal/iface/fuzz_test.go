package iface

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// FuzzPcapRead throws arbitrary bytes at the pcap parser. The invariants:
// never panic, never loop forever (every iteration must either deliver a
// packet, return an error, or hit EOF), a reader that accepts a header
// must keep its stream offset monotonically non-decreasing, and every call
// must return what the reference reader (pcap_ref_test.go) returns.
func FuzzPcapRead(f *testing.F) {
	// Seed corpus: a valid capture, its truncations at awkward offsets, a
	// big-endian nano variant, VLAN tags, and plain garbage.
	var valid bytes.Buffer
	pw, err := NewPcapWriter(&valid)
	if err != nil {
		f.Fatal(err)
	}
	keys := []rule.Packet{
		{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP},
		{SrcIP: 0xc0a80101, DstIP: 0xc0a80102, SrcPort: 53, DstPort: 5353, Proto: packet.ProtoUDP},
		{SrcIP: 1, DstIP: 2, Proto: packet.ProtoICMP},
	}
	for i, k := range keys {
		if err := pw.WritePacket(uint64(time.Second)+uint64(i)*uint64(time.Millisecond), k); err != nil {
			f.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		f.Fatal(err)
	}
	vb := valid.Bytes()
	f.Add(vb)
	f.Add(vb[:len(vb)-3])                   // torn record body
	f.Add(vb[:pcapGlobalHeaderLen+7])       // torn record header
	f.Add(vb[:pcapGlobalHeaderLen])         // header only
	f.Add(vb[:5])                           // torn global header
	f.Add([]byte{})                         // empty
	f.Add([]byte("garbage, not a capture")) // bad magic

	// Big-endian nanosecond header with an absurd claimed record length.
	be := make([]byte, pcapGlobalHeaderLen+pcapRecordHeaderLen)
	binary.BigEndian.PutUint32(be[0:4], pcapMagicNanoLE)
	binary.BigEndian.PutUint16(be[4:6], 2)
	binary.BigEndian.PutUint32(be[20:24], LinkTypeEthernet)
	binary.BigEndian.PutUint32(be[32:36], 0xffffffff)
	f.Add(be)

	// Zero-length record followed by a stacked-VLAN frame.
	var vlan bytes.Buffer
	pw2, err := NewPcapWriter(&vlan)
	if err != nil {
		f.Fatal(err)
	}
	if err := pw2.writeRecord(uint64(time.Second), nil); err != nil {
		f.Fatal(err)
	}
	ip, err := packet.Serialize(keys[0])
	if err != nil {
		f.Fatal(err)
	}
	frame := make([]byte, 12, 26+len(ip))
	for _, tpid := range []uint16{etherTypeQinQ, etherTypeVLAN} {
		frame = binary.BigEndian.AppendUint16(frame, tpid)
		frame = binary.BigEndian.AppendUint16(frame, 7)
	}
	frame = binary.BigEndian.AppendUint16(frame, etherTypeIPv4)
	frame = append(frame, ip...)
	if err := pw2.writeRecord(2*uint64(time.Second), frame); err != nil {
		f.Fatal(err)
	}
	if err := pw2.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(vlan.Bytes())

	// Everything the decoder branches on (options, fragments, truncations),
	// a capture long enough to refill the window, and a record larger than
	// the window.
	mixed := mixedFrames(f, pcapVariants[0])
	f.Add(buildPcap(pcapVariants[0], mixed))
	f.Add(buildPcap(pcapVariants[2], append(append(mixed, mixed...), mixed...)))
	f.Add(buildPcap(pcapVariants[1], [][]byte{append(mixedPackets(f)[0], make([]byte, 5000)...), mixedPackets(f)[1]}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Rate must stay 0: fuzz inputs contain arbitrary timestamps and a
		// paced reader would faithfully sleep out their gaps.
		for _, batch := range []int{1, 16} {
			if err := diffPcap(data, PcapConfig{}, batch); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		}
		r, err := NewPcapReader(bytes.NewReader(data), PcapConfig{})
		if err != nil {
			return
		}
		ps := make([]rule.Packet, 16)
		prevOff := r.off
		for i := 0; ; i++ {
			if i > len(data)+16 {
				t.Fatalf("ReadBatch made no progress after %d iterations (len(data)=%d)", i, len(data))
			}
			n, err := r.ReadBatch(ps)
			if off := r.off; off < prevOff {
				t.Fatalf("stream offset went backwards: %d -> %d", prevOff, off)
			} else {
				prevOff = off
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				return // clean failure is fine; panics and hangs are not
			}
			if n == 0 {
				t.Fatal("ReadBatch returned (0, nil) on a finite stream")
			}
		}
	})
}
