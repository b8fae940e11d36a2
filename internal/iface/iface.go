// Package iface ingests real packets into the classification engine.
//
// Everything upstream of this package produced synthetic ClassBench header
// traces; iface is the boundary where actual wire-format traffic enters the
// system. It provides one zero-allocation Source interface — ReadBatch fills
// a caller-owned span of decoded 5-tuple keys — and three implementations:
//
//   - PcapReader replays classic-pcap capture files (Ethernet, 802.1Q VLAN
//     and raw-IP link types), decoding IPv4/TCP/UDP headers into
//     classification keys, with replay pacing at the recorded inter-arrival
//     gaps, a rate multiplier of them, or flat out (see PcapConfig.Rate).
//     PcapWriter is the inverse: it captures classified traffic — or any
//     synthetic trace — into a pcap fixture other tools can open.
//
//   - AFPacketSource captures live frames from a Linux network interface
//     through an AF_PACKET raw socket (//go:build linux; other platforms
//     get an error-returning stub). Capturing requires CAP_NET_RAW.
//
//   - The shared-memory ring transport (ShmServer, ShmClient) lets a
//     co-located client reach the wire protocol's frame handler through a
//     file-backed mmap region instead of TCP: a handshake page, then two
//     single-producer/single-consumer byte rings with cache-line-padded
//     cursors that carry protocol frames. The SDK exposes it as classifier.WithSharedMemory.
//
// All three steady-state read paths perform zero heap allocations per
// operation; the alloc tests in this package pin that the same way the
// engine's gates do.
package iface

import (
	"errors"
	"fmt"

	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// Source is a stream of decoded packets ready for classification.
//
// ReadBatch fills ps with up to len(ps) packets and returns how many it
// wrote. It returns io.EOF once the source is exhausted (finite sources
// only); live-capture sources instead return (0, nil) when a poll interval
// elapsed without traffic, so callers can check for shutdown between
// batches. A Source is not safe for concurrent ReadBatch calls.
type Source interface {
	ReadBatch(ps []rule.Packet) (int, error)
	Close() error
}

// SourceStats is the common counter set every Source tracks.
type SourceStats struct {
	// Packets is the number of keys handed to ReadBatch callers.
	Packets uint64
	// Skipped counts frames the source read but could not turn into a
	// classification key: non-IPv4 ethertypes (ARP, IPv6, LLDP, ...),
	// frames truncated below their header lengths, unknown link types.
	Skipped uint64
}

// Errors shared by the ingestion sources.
var (
	// ErrNotPcap is returned when the stream does not start with a classic
	// pcap global header.
	ErrNotPcap = errors.New("iface: not a pcap file (bad magic)")
	// ErrPcapVersion is returned for pcap major versions other than 2.
	ErrPcapVersion = errors.New("iface: unsupported pcap version")
	// ErrLinkType is returned for capture link types this package cannot
	// decode (anything but Ethernet and raw IP).
	ErrLinkType = errors.New("iface: unsupported pcap link type")
	// ErrShmClosed is returned by shm operations after the peer shut the
	// ring down.
	ErrShmClosed = errors.New("iface: shared-memory ring closed by peer")
)

// CanonicalKey returns the wire-expressible form of a classification key:
// protocols without port fields (anything but TCP and UDP) carry zero ports
// on the wire, so their decoded keys always read 0 there. A synthetic trace
// entry round-trips through pcap exactly iff it equals its canonical form.
func CanonicalKey(p rule.Packet) rule.Packet {
	if p.Proto != packet.ProtoTCP && p.Proto != packet.ProtoUDP {
		p.SrcPort, p.DstPort = 0, 0
	}
	return p
}

// TornTailError reports a pcap stream that ends mid-record — the classic
// torn tail of a capture interrupted partway through a write. It names the
// byte offset where the truncated record starts so the file can be repaired
// by truncating to that offset, mirroring the update journal's torn-tail
// handling.
type TornTailError struct {
	// Offset is the byte offset of the first truncated record.
	Offset int64
	// What describes which part of the record was cut short.
	What string
}

// Error implements the error interface.
func (e *TornTailError) Error() string {
	return fmt.Sprintf("iface: torn pcap tail: %s truncated at byte offset %d", e.What, e.Offset)
}
