package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
)

// refAppendFrame is the encoder as it stood before frames were built in
// place: header, a copy of the payload, CRC. The reference the in-place
// encoder is held to.
func refAppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, ProtoVersion2, f.Op, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, f.Table)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// refReadFrame is the decoder as it stood before the frame was read into
// one contiguous buffer: a header array of its own, a fresh body, the CRC
// taken in two steps. The reference readFrameInto is held to.
func refReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("server: reading frame: %w", err)
	}
	if hdr[0] != frameMagic[0] {
		return Frame{}, errFrameMagic
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Frame{}, fmt.Errorf("server: reading frame header: %w", err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return Frame{}, errFrameMagic
	}
	if hdr[4] != ProtoVersion2 {
		return Frame{}, errFrameVersion
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return Frame{}, errFrameFlags
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[12:16])
	if payloadLen > MaxFramePayload {
		return Frame{}, errFrameOversize
	}
	rest := make([]byte, int(payloadLen)+frameCRCLen)
	if _, err := io.ReadFull(r, rest); err != nil {
		return Frame{}, fmt.Errorf("server: reading frame body: %w", err)
	}
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, rest[:payloadLen])
	if binary.LittleEndian.Uint32(rest[payloadLen:]) != crc {
		return Frame{}, errFrameCRC
	}
	return Frame{Op: hdr[5], Table: binary.LittleEndian.Uint32(hdr[8:12]), Payload: rest[:payloadLen]}, nil
}

var allOps = []uint8{OpPing, OpClassify, OpBatch, OpInsert, OpDelete, OpSave, OpLoad,
	OpListTables, OpCreateTable, OpDropTable, OpPong, OpResult, OpBatchResult, OpUpdated,
	OpTableList, OpTableInfo, OpError}

// TestFrameEncodersMatchReference holds the one encoder — beginFrame, a
// payload appended in place, endFrame, and AppendFrame over them — to the
// bytes the copying encoder produced, for every opcode and for payloads from
// empty to the largest a frame may carry (3 332 is wire_v2's batch request),
// at the start of a buffer and after another frame.
func TestFrameEncodersMatchReference(t *testing.T) {
	payload := make([]byte, MaxFramePayload)
	for i := range payload {
		payload[i] = byte(i*7 + i>>8)
	}
	for _, op := range allOps {
		for _, n := range []int{0, 1, packedPacketLen, 4 + 256*packedPacketLen, MaxFramePayload} {
			for _, prefix := range [][]byte{nil, refAppendFrame(nil, Frame{Op: OpPing})} {
				f := Frame{Op: op, Table: uint32(op)<<24 | uint32(n), Payload: payload[:n]}
				want := refAppendFrame(bytes.Clone(prefix), f)
				if got := AppendFrame(bytes.Clone(prefix), f); !bytes.Equal(got, want) {
					t.Fatalf("AppendFrame op %d payload %d after %d bytes: differs from the reference", op, n, len(prefix))
				}
				start := len(prefix)
				got := beginFrame(bytes.Clone(prefix), f.Op, f.Table)
				for _, b := range f.Payload[:min(n, 64)] { // piecewise, as the ops do
					got = append(got, b)
				}
				got = endFrame(append(got, f.Payload[min(n, 64):]...), start)
				if !bytes.Equal(got, want) {
					t.Fatalf("beginFrame/endFrame op %d payload %d after %d bytes: differs from the reference", op, n, len(prefix))
				}
			}
		}
	}
}

// TestReadFrameMatchesReference holds the contiguous-buffer decoder to the
// reference on every FuzzFrame seed and its damaged variants — truncated at
// every byte, each CRC byte flipped, bad magic, version and flags, a payload
// bit flipped, an oversize length — both with a fresh buffer per frame
// (ReadFrame) and with one dirty buffer reused across all of them.
func TestReadFrameMatchesReference(t *testing.T) {
	var cases [][]byte
	for _, seed := range append(frameSeeds(), AppendFrame(nil, Frame{Op: OpBatch, Table: 9, Payload: make([]byte, 4+256*packedPacketLen)})) {
		for cut := 0; cut <= len(seed); cut++ {
			cases = append(cases, seed[:cut])
		}
		cases = append(cases, append(bytes.Clone(seed), "trailing"...))
		for _, at := range []int{0, 1, 3, 4, 5, 6, 7, 8, 12, 15, 16, len(seed) - 4, len(seed) - 3, len(seed) - 2, len(seed) - 1} {
			if at >= 0 && at < len(seed) {
				bad := bytes.Clone(seed)
				bad[at] ^= 0x40
				cases = append(cases, bad)
			}
		}
	}
	oversize := AppendFrame(nil, Frame{Op: OpPing})
	binary.LittleEndian.PutUint32(oversize[12:], MaxFramePayload+1)
	cases = append(cases, oversize)

	reused := bytes.Repeat([]byte{0xAA}, 8)
	for i, data := range cases {
		want, wantErr := refReadFrame(bytes.NewReader(data))
		got, gotErr := ReadFrame(bytes.NewReader(data))
		var into Frame
		var intoErr error
		into, reused, intoErr = readFrameInto(bytes.NewReader(data), reused)
		for _, g := range []struct {
			name string
			f    Frame
			err  error
		}{{"ReadFrame", got, gotErr}, {"readFrameInto", into, intoErr}} {
			if fmt.Sprint(g.err) != fmt.Sprint(wantErr) || (wantErr == io.EOF) != (g.err == io.EOF) {
				t.Fatalf("case %d (%d bytes): %s error %v, reference %v", i, len(data), g.name, g.err, wantErr)
			}
			if g.f.Op != want.Op || g.f.Table != want.Table || !bytes.Equal(g.f.Payload, want.Payload) {
				t.Fatalf("case %d (%d bytes): %s frame %+v, reference %+v", i, len(data), g.name, g.f, want)
			}
		}
		if intoErr == nil && cap(into.Payload) != len(into.Payload) {
			t.Fatalf("case %d: payload capacity %d reaches past its %d bytes into the CRC", i, cap(into.Payload), len(into.Payload))
		}
	}
}
