package iface

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"time"

	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// Classic pcap (libpcap savefile) constants. Only the classic format is
// spoken — pcapng files fail fast with ErrNotPcap.
const (
	pcapMagicMicroLE = 0xa1b2c3d4 // little-endian file, microsecond stamps
	pcapMagicMicroBE = 0xd4c3b2a1 // big-endian file, microsecond stamps
	pcapMagicNanoLE  = 0xa1b23c4d // little-endian file, nanosecond stamps
	pcapMagicNanoBE  = 0x4d3cb2a1 // big-endian file, nanosecond stamps

	pcapGlobalHeaderLen = 24
	pcapRecordHeaderLen = 16

	// LinkTypeEthernet and LinkTypeRawIP are the two capture link types the
	// decoder understands (DLT_EN10MB and DLT_RAW).
	LinkTypeEthernet = 1
	LinkTypeRawIP    = 101

	// EtherTypes relevant to the decode path.
	etherTypeIPv4  = 0x0800
	etherTypeVLAN  = 0x8100 // 802.1Q
	etherTypeQinQ  = 0x88a8 // 802.1ad service tag
	etherTypeQinQ2 = 0x9100 // legacy QinQ

	// defaultMaxPacketBytes bounds one record's captured length; anything
	// larger is treated as corruption rather than an allocation request.
	defaultMaxPacketBytes = 256 * 1024

	// pcapWindow is how much of the stream the reader buffers: it asks the
	// underlying io.Reader for this many bytes at a time and decodes every
	// whole record of the window where it lies. 4 KiB holds ~60 minimum-size
	// TCP records, enough to spread the per-window work (one Read, one
	// straddling record copied) thin: 16 and 64 KiB windows measured at most
	// 3 ns/packet (a tenth) faster, inside run-to-run noise; see
	// docs/ARCHITECTURE.md, "Ingestion sources".
	pcapWindow = 4096
	// pcapFrameMin is the first size of the buffer that receives records not
	// wholly inside the window: room for any standard-MTU frame, so that
	// only a jumbo or oversize record ever grows it.
	pcapFrameMin = 2048
)

// PcapConfig configures a PcapReader.
type PcapConfig struct {
	// Rate selects the replay pacing mode. 0 (the default) replays at
	// maximum rate: ReadBatch never sleeps. Any positive value r replays at
	// r times the recorded speed, honouring the capture's inter-arrival
	// gaps: 1 reproduces the original pacing exactly, 2 halves every gap,
	// 0.5 doubles them. Pacing is applied against the wall clock starting
	// at the first packet, so a replay cannot drift: a slow consumer is
	// simply never slept for.
	Rate float64
	// MaxPacketBytes caps a single record's captured length (default 256
	// KiB); longer records indicate corruption and fail the read.
	MaxPacketBytes int
}

// PcapReader replays a classic pcap stream as a Source. The reader owns all
// its buffers: the steady-state ReadBatch path performs zero heap
// allocations per call.
type PcapReader struct {
	r   io.Reader
	c   io.Closer // non-nil when the reader owns the underlying file
	cfg PcapConfig

	bigEndian bool
	nanos     bool // timestamp fraction is nanoseconds, not microseconds
	linkType  uint32

	// win is the window: one Read's worth of the stream, of which
	// win[pos:end] is unread. Records that lie wholly inside that are decoded
	// in place. The array is part of the reader so that opening one costs no
	// allocation beyond the reader itself.
	win      [pcapWindow]byte
	pos, end int
	readErr  error // what the Read that filled the window returned with it
	// frame receives a record body that is not wholly inside the window —
	// it straddles the window's edge or is larger than the window. It is
	// allocated on first need (pcapFrameMin) and grown only by a larger
	// record, bounded by MaxPacketBytes.
	frame []byte

	// off is the stream offset of the next unread byte.
	off int64

	// Pacing state: ts0 is the first record's timestamp, start the wall
	// clock when it was emitted.
	started bool
	ts0     uint64 // nanoseconds
	start   time.Time

	// One-record lookahead: when pacing finds the next packet is not due
	// yet and the batch already holds packets, the decoded key is parked
	// here for the next ReadBatch instead of sleeping mid-batch.
	pending   bool
	pendingP  rule.Packet
	pendingTS uint64

	stats SourceStats
}

// NewPcapReader parses the pcap global header from r and returns a reader
// positioned at the first record.
func NewPcapReader(r io.Reader, cfg PcapConfig) (*PcapReader, error) {
	if cfg.MaxPacketBytes <= 0 {
		cfg.MaxPacketBytes = defaultMaxPacketBytes
	}
	p := &PcapReader{r: r, cfg: cfg}
	var hdr [pcapGlobalHeaderLen]byte
	n, err := p.readFull(hdr[:])
	p.off = int64(n)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrNotPcap
		}
		return nil, err
	}
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case pcapMagicMicroLE:
	case pcapMagicNanoLE:
		p.nanos = true
	case pcapMagicMicroBE:
		p.bigEndian = true
	case pcapMagicNanoBE:
		p.bigEndian, p.nanos = true, true
	default:
		return nil, ErrNotPcap
	}
	if major := p.u16(hdr[4:6]); major != 2 {
		return nil, ErrPcapVersion
	}
	p.linkType = p.u32(hdr[20:24])
	if p.linkType != LinkTypeEthernet && p.linkType != LinkTypeRawIP {
		return nil, ErrLinkType
	}
	return p, nil
}

// OpenPcap opens a pcap file for replay; Close closes the file.
func OpenPcap(path string, cfg PcapConfig) (*PcapReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	p, err := NewPcapReader(f, cfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	p.c = f
	return p, nil
}

// u16 and u32 decode in the stream's byte order.
func (p *PcapReader) u16(b []byte) uint16 {
	if p.bigEndian {
		return binary.BigEndian.Uint16(b)
	}
	return binary.LittleEndian.Uint16(b)
}

func (p *PcapReader) u32(b []byte) uint32 {
	if p.bigEndian {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// Stats returns the reader's running counters.
func (p *PcapReader) Stats() SourceStats { return p.stats }

// ErrPacketTooLarge wraps records whose captured length exceeds
// PcapConfig.MaxPacketBytes.
var ErrPacketTooLarge = errors.New("iface: pcap record exceeds MaxPacketBytes")

// readFull is io.ReadFull on the stream behind the window: the bytes the
// window still holds come first, and each time it runs dry it is refilled
// with one Read of the underlying stream.
func (p *PcapReader) readFull(dst []byte) (int, error) {
	n := 0
	for {
		m := copy(dst[n:], p.win[p.pos:p.end])
		n += m
		p.pos += m
		if n == len(dst) {
			return n, nil
		}
		// The window is empty, so an error that arrived with its last bytes
		// is due. It is reported once: a later call asks the stream again.
		if err := p.readErr; err != nil {
			p.readErr = nil
			if err == io.EOF && n > 0 {
				err = io.ErrUnexpectedEOF
			}
			return n, err
		}
		p.pos = 0
		p.end, p.readErr = p.r.Read(p.win[:])
	}
}

// next is the record step: it reads records until one decodes into a
// classification key, writes that key to *key and returns its capture
// timestamp in nanoseconds. Frames that are not classifiable IPv4 (wrong
// ethertype, truncated headers) are counted in Skipped and passed over.
// io.EOF means a clean end exactly at a record boundary; a *TornTailError
// means the stream ended mid-record.
func (p *PcapReader) next(key *rule.Packet) (uint64, error) {
	var straddled [pcapRecordHeaderLen]byte // a record header cut by the window's edge is put together here
	for {
		recOff := p.off // where this record starts: what a TornTailError reports
		hdr := p.win[p.pos:p.end]
		if len(hdr) >= pcapRecordHeaderLen {
			p.pos += pcapRecordHeaderLen
			p.off += pcapRecordHeaderLen
		} else {
			hdr = straddled[:]
			n, err := p.readFull(hdr)
			p.off += int64(n)
			if err == io.EOF {
				return 0, io.EOF
			}
			if err == io.ErrUnexpectedEOF {
				return 0, &TornTailError{Offset: recOff, What: "record header"}
			}
			if err != nil {
				return 0, err
			}
		}
		// Everything the header says is taken now: a refill for the body
		// overwrites the window hdr may point into.
		ts := uint64(p.u32(hdr[0:4])) * uint64(time.Second)
		if p.nanos {
			ts += uint64(p.u32(hdr[4:8]))
		} else {
			ts += uint64(p.u32(hdr[4:8])) * uint64(time.Microsecond)
		}
		incl := int(p.u32(hdr[8:12]))
		if incl < 0 || incl > p.cfg.MaxPacketBytes { // < 0: the length wrapped a 32-bit int
			return 0, ErrPacketTooLarge
		}
		var body []byte
		if p.end-p.pos >= incl {
			body = p.win[p.pos : p.pos+incl]
			p.pos += incl
			p.off += int64(incl)
		} else {
			if cap(p.frame) < incl {
				p.frame = make([]byte, max(incl, pcapFrameMin))
			}
			body = p.frame[:incl]
			n, err := p.readFull(body)
			p.off += int64(n)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return 0, &TornTailError{Offset: recOff, What: "record body"}
			}
			if err != nil {
				return 0, err
			}
		}
		if p.linkType == LinkTypeEthernet {
			var ok bool
			if body, ok = ethPayload(body); !ok {
				p.stats.Skipped++
				continue
			}
		}
		if packet.DecodeInto(body, key) != nil {
			p.stats.Skipped++
			continue
		}
		return ts, nil
	}
}

// ethPayload strips the Ethernet header and any 802.1Q/802.1ad VLAN tags,
// returning the IPv4 payload, or ok=false for other ethertypes or frames
// too short to hold their headers.
func ethPayload(frame []byte) ([]byte, bool) {
	if len(frame) < 14 {
		return nil, false
	}
	et := binary.BigEndian.Uint16(frame[12:14])
	off := 14
	// A frame can carry stacked tags (QinQ); four deep covers anything a
	// real network produces while keeping the loop bounded for the fuzzer.
	for tags := 0; tags < 4 && (et == etherTypeVLAN || et == etherTypeQinQ || et == etherTypeQinQ2); tags++ {
		if len(frame) < off+4 {
			return nil, false
		}
		et = binary.BigEndian.Uint16(frame[off+2 : off+4])
		off += 4
	}
	if et != etherTypeIPv4 {
		return nil, false
	}
	return frame[off:], true
}

// ReadBatch implements Source. With pacing enabled (Rate > 0) it emits
// every packet already due by the wall clock; when none is due it sleeps
// until the next one is, so a batch never splits a sleep across its
// packets — callers get the largest batch the recorded schedule allows.
func (p *PcapReader) ReadBatch(ps []rule.Packet) (int, error) {
	n := 0
	for n < len(ps) {
		// Each key is decoded straight into its batch slot.
		var ts uint64
		if p.pending {
			ps[n], ts = p.pendingP, p.pendingTS
			p.pending = false
		} else {
			var err error
			if ts, err = p.next(&ps[n]); err != nil {
				if n > 0 && err == io.EOF {
					return n, nil
				}
				return n, err
			}
		}
		if p.cfg.Rate > 0 {
			if !p.started {
				p.started = true
				p.ts0 = ts
				p.start = time.Now()
			}
			due := p.start.Add(time.Duration(float64(ts-p.ts0) / p.cfg.Rate))
			if wait := time.Until(due); wait > 0 {
				if n > 0 {
					// Hold the packet for the next batch rather than
					// sleeping with delivered packets in hand.
					p.pending, p.pendingP, p.pendingTS = true, ps[n], ts
					return n, nil
				}
				time.Sleep(wait)
			}
		}
		n++
		p.stats.Packets++
	}
	return n, nil
}

// Close closes the underlying file when the reader owns one.
func (p *PcapReader) Close() error {
	if p.c != nil {
		return p.c.Close()
	}
	return nil
}
