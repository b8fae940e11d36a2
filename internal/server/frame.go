package server

// The wire protocol: length-prefixed binary frames in both directions, with
// table addressing so one connection can query many rule sets, CRC-guarded
// like the compiled-artifact format. It is version 2; version 1 was a text
// line protocol and is gone, which is why the magic opens with a non-ASCII
// byte: a text client is recognised — and refused — on its first byte.
//
// Frame layout (all integers little-endian, like the NCAF artifact format):
//
//	offset  size  field
//	0       4     magic     0xF2 'N' 'C' '2'
//	4       1     version   2
//	5       1     op        request/response opcode (Op* constants)
//	6       2     flags     reserved, must be 0
//	8       4     table     table ID (0 = the server's default table)
//	12      4     payloadLen
//	16      n     payload   op-specific (see proto2.go)
//	16+n    4     crc       CRC-32 (IEEE) of bytes [0, 16+n)
//
// A frame is rejected — and the connection closed, since framing can no
// longer be trusted — on bad magic, unknown version, non-zero flags,
// oversized payload or CRC mismatch. Errors inside a well-framed request
// (unknown table, unparsable payload, a failed update) are answered with an
// OpError frame and the connection stays usable.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// frameMagic opens every frame. The first byte is non-ASCII, so readFrameInto
// can refuse a text client without waiting for a full header.
var frameMagic = [4]byte{0xF2, 'N', 'C', '2'}

// ProtoVersion2 is the frame version this package speaks.
const ProtoVersion2 = 2

// frameHeaderLen is the fixed byte length before the payload; frameCRCLen
// trails the payload.
const (
	frameHeaderLen = 16
	frameCRCLen    = 4
)

// MaxFramePayload bounds a frame's payload. It fits a MaxBatch-packet
// batch request (13 bytes per packet) with room to spare.
const MaxFramePayload = 1 << 20

// Request opcodes.
const (
	// OpPing answers OpPong with an empty payload (liveness/latency probe).
	OpPing uint8 = 1
	// OpClassify carries one 13-byte packet; answered with OpResult.
	OpClassify uint8 = 2
	// OpBatch carries uint32 n + n packed packets; answered with
	// OpBatchResult. Frames may be pipelined: a client can send many OpBatch
	// frames before reading the first response; responses come back in
	// request order.
	OpBatch uint8 = 3
	// OpInsert carries int32 pos + an 80-byte packed rule; answered with
	// OpUpdated.
	OpInsert uint8 = 4
	// OpDelete carries int32 rule ID; answered with OpUpdated.
	OpDelete uint8 = 5
	// OpSave carries an artifact path; answered with OpUpdated (id -1).
	OpSave uint8 = 6
	// OpLoad carries an artifact path; answered with OpUpdated (id -1).
	OpLoad uint8 = 7
	// 8 and 68 stay unassigned, so a stats request from an older client
	// gets OpError rather than another op's answer; the counters are the
	// admin plane's /metrics.

	// OpListTables has an empty payload; answered with OpTableList.
	OpListTables uint8 = 9
	// OpCreateTable carries uint8 nameLen + name + artifact path. The server
	// creates a new table warm-started from the artifact; answered with
	// OpTableInfo. Multi-table servers only.
	OpCreateTable uint8 = 10
	// OpDropTable drops the table addressed by the frame header (the
	// payload is empty); answered with OpTableInfo. Multi-table servers
	// only; the default table cannot be dropped.
	OpDropTable uint8 = 11
)

// Response opcodes.
const (
	// OpPong answers OpPing.
	OpPong uint8 = 64
	// OpResult answers OpClassify: status uint8 (0 no-match, 1 match) +
	// int32 rule ID + int32 priority.
	OpResult uint8 = 65
	// OpBatchResult answers OpBatch: uint32 n + n packed results (9 bytes
	// each, same shape as OpResult's payload).
	OpBatchResult uint8 = 66
	// OpUpdated answers OpInsert/OpDelete/OpSave/OpLoad: int32 affected rule
	// ID (-1 when not applicable) + uint64 version + uint32 live rule count.
	OpUpdated uint8 = 67
	// OpTableList answers OpListTables: uint16 n, then per table uint32 ID +
	// uint8 flags (1 = default) + uint8 nameLen + name.
	OpTableList uint8 = 69
	// OpTableInfo answers OpCreateTable/OpDropTable: uint32 table ID +
	// uint32 live rule count.
	OpTableInfo uint8 = 70
	// OpError carries a human-readable error message; the connection stays
	// usable.
	OpError uint8 = 127
)

// Frame is one decoded frame.
type Frame struct {
	// Op is the request or response opcode.
	Op uint8
	// Table addresses the table the op applies to; 0 means the server's
	// default table.
	Table uint32
	// Payload is the op-specific body (may be empty, never retained by the
	// codec).
	Payload []byte
}

// Frame decode errors. errFrameMagic specifically marks a connection whose
// first bytes are not a frame at all.
var (
	errFrameMagic    = errors.New("server: bad frame magic: not a v2 frame — the v1 text protocol was removed")
	errFrameVersion  = errors.New("server: unsupported frame version")
	errFrameFlags    = errors.New("server: reserved frame flags must be zero")
	errFrameOversize = fmt.Errorf("server: frame payload exceeds %d bytes", MaxFramePayload)
	errFrameCRC      = errors.New("server: frame CRC mismatch")
)

// beginFrame appends a frame header with a zero payload length to dst. The
// caller appends the payload straight after it and closes the frame with
// endFrame, so a payload built in place is never copied into its frame.
func beginFrame(dst []byte, op uint8, table uint32) []byte {
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, ProtoVersion2, op, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, table)
	return append(dst, 0, 0, 0, 0)
}

// endFrame closes the frame beginFrame opened at dst[start:]: everything
// appended since is its payload; the length is patched into the header and
// the CRC appended.
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+12:], uint32(len(dst)-start-frameHeaderLen))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// AppendFrame appends the encoded frame to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	return endFrame(append(beginFrame(dst, f.Op, f.Table), f.Payload...), start)
}

// WriteFrame encodes the frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	buf := AppendFrame(make([]byte, 0, frameHeaderLen+len(f.Payload)+frameCRCLen), f)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads and validates one frame from r. The returned payload is
// freshly allocated, so callers may retain it. io.EOF is returned unwrapped
// when the stream ends cleanly between frames.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := readFrameInto(r, nil)
	return f, err
}

// readFrameInto is ReadFrame with a reusable buffer: the whole frame —
// header, payload, CRC — is read into buf, contiguous, so it is checksummed
// in one call and a long-lived caller (either end of a connection) reads
// frames without a per-frame allocation once the buffer has grown to the
// connection's working size. The returned frame's payload aliases the
// buffer, which is returned, possibly grown, for the next call; it must not
// be reused while the payload is live.
func readFrameInto(r io.Reader, buf []byte) (Frame, []byte, error) {
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return Frame{}, buf, io.EOF
		}
		return Frame{}, buf, fmt.Errorf("server: reading frame: %w", err)
	}
	// Checked before the rest of the header is read: a text client sends
	// fewer than frameHeaderLen bytes and then waits for its answer.
	if hdr[0] != frameMagic[0] {
		return Frame{}, buf, errFrameMagic
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Frame{}, buf, fmt.Errorf("server: reading frame header: %w", err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return Frame{}, buf, errFrameMagic
	}
	if hdr[4] != ProtoVersion2 {
		return Frame{}, buf, errFrameVersion
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return Frame{}, buf, errFrameFlags
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[12:16])
	if payloadLen > MaxFramePayload {
		return Frame{}, buf, errFrameOversize
	}
	end := frameHeaderLen + int(payloadLen)
	if cap(buf) < end+frameCRCLen {
		buf = make([]byte, end+frameCRCLen)
		copy(buf, hdr)
	}
	buf = buf[:end+frameCRCLen]
	if _, err := io.ReadFull(r, buf[frameHeaderLen:]); err != nil {
		return Frame{}, buf, fmt.Errorf("server: reading frame body: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[end:]) != crc32.ChecksumIEEE(buf[:end]) {
		return Frame{}, buf, errFrameCRC
	}
	return Frame{
		Op:      buf[5],
		Table:   binary.LittleEndian.Uint32(buf[8:12]),
		Payload: buf[frameHeaderLen:end:end],
	}, buf, nil
}

// packedPacketLen is the wire size of one packet key: srcIP(4) + dstIP(4) +
// srcPort(2) + dstPort(2) + proto(1).
const packedPacketLen = 13

// packedResultLen is the wire size of one classification result: status(1)
// + ruleID(4) + priority(4).
const packedResultLen = 9

// packedRuleLen is the wire size of one rule: five (lo, hi) uint64 ranges.
const packedRuleLen = 80
