package iface

import (
	"bufio"
	"encoding/binary"
	"io"
	"time"

	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// PcapWriter writes a classic pcap stream (little-endian, microsecond
// timestamps, Ethernet link type) for capture-to-fixture: anything this
// package ingests — or any synthetic trace — can be persisted as a file
// every pcap tool opens. The writer reuses one frame buffer, so the
// steady-state WritePacket path does not allocate.
type PcapWriter struct {
	bw *bufio.Writer
	// scratch holds one serialized frame: Ethernet header + IPv4 + the
	// longest transport header.
	scratch [14 + packet.MaxSerializedLen]byte
	recHdr  [pcapRecordHeaderLen]byte
}

// NewPcapWriter writes the pcap global header to w and returns the writer.
// Call Flush when done.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	pw := &PcapWriter{bw: bufio.NewWriter(w)}
	var hdr [pcapGlobalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicMicroLE)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)       // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4)       // version minor
	binary.LittleEndian.PutUint32(hdr[16:20], 65535) // snaplen
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := pw.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return pw, nil
}

// writeRecord writes one record header plus frame bytes.
func (w *PcapWriter) writeRecord(tsNanos uint64, frame []byte) error {
	binary.LittleEndian.PutUint32(w.recHdr[0:4], uint32(tsNanos/uint64(time.Second)))
	binary.LittleEndian.PutUint32(w.recHdr[4:8], uint32(tsNanos%uint64(time.Second)/uint64(time.Microsecond)))
	binary.LittleEndian.PutUint32(w.recHdr[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(w.recHdr[12:16], uint32(len(frame)))
	if _, err := w.bw.Write(w.recHdr[:]); err != nil {
		return err
	}
	_, err := w.bw.Write(frame)
	return err
}

// WritePacket synthesises a minimal Ethernet/IPv4/transport frame realising
// the 5-tuple key and records it at the given capture timestamp.
func (w *PcapWriter) WritePacket(tsNanos uint64, key rule.Packet) error {
	frame := w.scratch[:]
	// Ethernet: zero MACs, IPv4 ethertype.
	clear(frame[:12])
	binary.BigEndian.PutUint16(frame[12:14], etherTypeIPv4)
	n, err := packet.SerializeTo(frame[14:], key)
	if err != nil {
		return err
	}
	return w.writeRecord(tsNanos, frame[:14+n])
}

// Flush flushes buffered records to the underlying writer.
func (w *PcapWriter) Flush() error { return w.bw.Flush() }

// TraceInterval is the synthetic inter-arrival gap WriteTracePcap stamps
// between consecutive packets, chosen small enough that recorded-rate
// replays of test fixtures finish quickly but large enough to be a real
// schedule for the pacing modes.
const TraceInterval = time.Microsecond

// WriteTracePcap exports a synthetic header trace as a pcap file: each
// entry becomes a minimal Ethernet/IPv4 frame, timestamped TraceInterval
// apart. This is how genrules, the benchmarks and the tests fabricate "real
// traffic" fixtures from ClassBench traces without committing binaries.
func WriteTracePcap(w io.Writer, entries []packet.TraceEntry) error {
	pw, err := NewPcapWriter(w)
	if err != nil {
		return err
	}
	ts := uint64(time.Second) // start at t=1s; zero timestamps confuse some tools
	for _, e := range entries {
		if err := pw.WritePacket(ts, e.Key); err != nil {
			return err
		}
		ts += uint64(TraceInterval)
	}
	return pw.Flush()
}
