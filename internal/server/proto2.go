package server

// Server side of the wire protocol (see frame.go for the frame layout):
// classification, pipelined batches, live updates, artifact save/load and
// table administration. Each frame names the table it operates
// on, so one connection can query and administer many rule sets
// concurrently.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// appendPacket packs one packet key (13 bytes, little-endian).
func appendPacket(dst []byte, p rule.Packet) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, p.SrcIP)
	dst = binary.LittleEndian.AppendUint32(dst, p.DstIP)
	dst = binary.LittleEndian.AppendUint16(dst, p.SrcPort)
	dst = binary.LittleEndian.AppendUint16(dst, p.DstPort)
	return append(dst, p.Proto)
}

// decodePacket unpacks one packet key; b must hold packedPacketLen bytes.
func decodePacket(b []byte) rule.Packet {
	return rule.Packet{
		SrcIP:   binary.LittleEndian.Uint32(b[0:4]),
		DstIP:   binary.LittleEndian.Uint32(b[4:8]),
		SrcPort: binary.LittleEndian.Uint16(b[8:10]),
		DstPort: binary.LittleEndian.Uint16(b[10:12]),
		Proto:   b[12],
	}
}

// appendRule packs a rule's five ranges (80 bytes). Priority and ID travel
// separately where needed: an inserted rule's identity is assigned by the
// server.
func appendRule(dst []byte, r rule.Rule) []byte {
	for _, d := range rule.Dimensions() {
		dst = binary.LittleEndian.AppendUint64(dst, r.Ranges[d].Lo)
		dst = binary.LittleEndian.AppendUint64(dst, r.Ranges[d].Hi)
	}
	return dst
}

// decodeRule unpacks a rule packed by appendRule; b must hold packedRuleLen
// bytes. The decoded rule is validated (rule.Rule.Validate) so a malicious
// frame cannot smuggle an ill-formed rule into a backend.
func decodeRule(b []byte) (rule.Rule, error) {
	var r rule.Rule
	for _, d := range rule.Dimensions() {
		r.Ranges[d] = rule.Range{
			Lo: binary.LittleEndian.Uint64(b[0:8]),
			Hi: binary.LittleEndian.Uint64(b[8:16]),
		}
		b = b[16:]
	}
	if err := r.Validate(); err != nil {
		return rule.Rule{}, err
	}
	return r, nil
}

// appendResult packs one classification result (9 bytes).
func appendResult(dst []byte, id, priority int, ok bool) []byte {
	status := byte(0)
	if ok {
		status = 1
	}
	dst = append(dst, status)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(id)))
	return binary.LittleEndian.AppendUint32(dst, uint32(int32(priority)))
}

// decodeResult unpacks one classification result; b must hold
// packedResultLen bytes. Only identity travels: a rule's ranges stay with
// the server.
func decodeResult(b []byte) (id, priority int, ok bool) {
	return int(int32(binary.LittleEndian.Uint32(b[1:5]))), int(int32(binary.LittleEndian.Uint32(b[5:9]))), b[0] != 0
}

// v2Buffers are the server end's buffers for one connection, living as long
// as it does and reused frame to frame, so once they have grown to the
// connection's working size a request — read, classified, answered — makes
// no heap allocation. They are owned by the single handler goroutine, and a
// request is fully answered before the next is read, so each is free for
// reuse as soon as the response has been handed to the socket or to the
// pipelining writer, which copies it.
type v2Buffers struct {
	// body backs the request frame being served: header, payload and CRC,
	// contiguous. The request's payload aliases it until the next read.
	body []byte
	// enc backs the encoded response frame. Classify and batch responses are
	// built in place in it; every other response is encoded into it.
	enc []byte
	// pkts and res back a batch request's decoded packets and their results.
	// Neither is cleared between batches: the decoder writes every packet and
	// the classifier every result of the n the request asked for, and only
	// those n are encoded.
	pkts []rule.Packet
	res  []engine.Result
}

// maxScratchBatch bounds the batch size whose scratch a connection keeps; a
// larger batch classifies through one-off slices.
const maxScratchBatch = 1024

// batchScratch returns packet and result slices of length n.
func (b *v2Buffers) batchScratch(n int) ([]rule.Packet, []engine.Result) {
	if n > maxScratchBatch {
		return make([]rule.Packet, n), make([]engine.Result, n)
	}
	if cap(b.pkts) < n {
		b.pkts, b.res = make([]rule.Packet, n), make([]engine.Result, n)
	}
	return b.pkts[:n], b.res[:n]
}

// handle serves one connection until EOF, a framing or write error, or a
// drain: a sequence of frames, answered in order. Each request is bracketed
// by the connection's busy state so a concurrent Shutdown never interrupts
// it mid-request. Clients may pipeline (send many frames before reading
// responses): while further request bytes are already buffered the replies
// collect in a write buffer, flushed when the requests run out, so pipelined
// batches do not pay one syscall per frame. A lone reply needs no
// coalescing and goes to the socket as it stands in bufs.enc: one write,
// no copy.
func (s *Server) handle(conn *servedConn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4096)
	w := bufio.NewWriter(conn)
	var bufs v2Buffers
	for {
		// Wait between requests with no deadline (drain arms its own); the
		// body deadline only covers reading the rest of a started frame.
		if _, err := br.Peek(1); err != nil {
			return
		}
		conn.beginRequest(s.batchReadTimeout())
		f, body, err := readFrameInto(br, bufs.body)
		bufs.body = body
		if err != nil {
			// A framing error poisons the stream — close rather than guess
			// at the next frame boundary. Say why when the framing itself
			// was intact enough to answer.
			if err != io.EOF {
				_ = WriteFrame(w, errorFrame(0, err.Error()))
				w.Flush()
			}
			conn.endRequest()
			return
		}
		if s.Telemetry != nil {
			t0 := time.Now()
			s.respond(f, &bufs)
			ns := time.Since(t0).Nanoseconds()
			s.Telemetry.ServerV2.RecordNanos(uint64(ns), ns)
		} else {
			s.respond(f, &bufs)
		}
		if br.Buffered() == 0 && w.Buffered() == 0 {
			_, err = conn.Write(bufs.enc)
		} else if _, err = w.Write(bufs.enc); err == nil && br.Buffered() == 0 {
			err = w.Flush()
		}
		if draining := conn.endRequest(); err != nil || draining {
			w.Flush()
			return
		}
	}
}

// errorFrame builds an OpError response.
func errorFrame(table uint32, msg string) Frame {
	return Frame{Op: OpError, Table: table, Payload: []byte(msg)}
}

// respond answers one request frame, leaving the encoded response in
// bufs.enc. The two hot ops build theirs in place; every other response is
// small, freshly allocated and encoded from its Frame.
func (s *Server) respond(f Frame, bufs *v2Buffers) {
	switch f.Op {
	case OpClassify:
		bufs.enc = s.frameClassify(bufs.enc[:0], f)
	case OpBatch:
		bufs.enc = s.frameBatch(bufs.enc[:0], f, bufs)
	default:
		bufs.enc = AppendFrame(bufs.enc[:0], s.respondFrame(f))
	}
}

// respondFrame answers every op but OpClassify and OpBatch. All errors
// inside a well-formed frame come back as OpError frames; the connection
// stays usable.
func (s *Server) respondFrame(f Frame) Frame {
	switch f.Op {
	case OpPing:
		return Frame{Op: OpPong, Table: f.Table}
	case OpInsert:
		return s.frameInsert(f)
	case OpDelete:
		return s.frameDelete(f)
	case OpSave:
		return s.frameSave(f)
	case OpLoad:
		return s.frameLoad(f)
	case OpListTables:
		s.requests.Add(1)
		s.tableOps.Add(1)
		return s.frameListTables(f)
	case OpCreateTable:
		s.requests.Add(1)
		s.tableOps.Add(1)
		return s.frameCreateTable(f)
	case OpDropTable:
		s.requests.Add(1)
		s.tableOps.Add(1)
		return s.frameDropTable(f)
	default:
		return errorFrame(f.Table, fmt.Sprintf("unknown op %d", f.Op))
	}
}

// frameClassify appends the encoded answer to an OpClassify request to dst.
func (s *Server) frameClassify(dst []byte, f Frame) []byte {
	s.requests.Add(1)
	eng, err := s.table(f.Table)
	if err != nil {
		return AppendFrame(dst, errorFrame(f.Table, err.Error()))
	}
	if len(f.Payload) != packedPacketLen {
		s.parseFails.Add(1)
		return AppendFrame(dst, errorFrame(f.Table, fmt.Sprintf("classify payload must be %d bytes, got %d", packedPacketLen, len(f.Payload))))
	}
	r, ok := eng.Classify(decodePacket(f.Payload))
	if ok {
		s.matches.Add(1)
	}
	start := len(dst)
	return endFrame(appendResult(beginFrame(dst, OpResult, f.Table), r.ID, r.Priority, ok), start)
}

// frameBatch appends the encoded answer to an OpBatch request to dst,
// classifying through the connection's scratch.
func (s *Server) frameBatch(dst []byte, f Frame, bufs *v2Buffers) []byte {
	eng, err := s.table(f.Table)
	if err != nil {
		s.requests.Add(1)
		return AppendFrame(dst, errorFrame(f.Table, err.Error()))
	}
	if len(f.Payload) < 4 {
		s.requests.Add(1)
		s.parseFails.Add(1)
		return AppendFrame(dst, errorFrame(f.Table, "batch payload too short"))
	}
	n := int(binary.LittleEndian.Uint32(f.Payload[:4]))
	if n <= 0 || n > MaxBatch {
		s.requests.Add(1)
		return AppendFrame(dst, errorFrame(f.Table, fmt.Sprintf("batch size must be in [1, %d]", MaxBatch)))
	}
	if want := 4 + n*packedPacketLen; len(f.Payload) != want {
		s.requests.Add(1)
		s.parseFails.Add(1)
		return AppendFrame(dst, errorFrame(f.Table, fmt.Sprintf("batch payload must be %d bytes for %d packets, got %d", want, n, len(f.Payload))))
	}
	s.requests.Add(int64(n))
	s.batches.Add(1)
	packets, out := bufs.batchScratch(n)
	body := f.Payload[4:]
	for i := range packets {
		packets[i] = decodePacket(body[i*packedPacketLen:])
	}
	eng.ClassifyBatch(packets, out)
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(beginFrame(dst, OpBatchResult, f.Table), uint32(n))
	matched := 0
	for i := range out {
		res := &out[i]
		if res.OK {
			matched++
		}
		dst = appendResult(dst, res.Rule.ID, res.Rule.Priority, res.OK)
	}
	s.matches.Add(int64(matched))
	return endFrame(dst, start)
}

// updatedFrame packs an OpUpdated response.
func updatedFrame(table uint32, id int, res engine.UpdateResult) Frame {
	payload := make([]byte, 0, 16)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(int32(id)))
	payload = binary.LittleEndian.AppendUint64(payload, res.Version)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(res.Rules))
	return Frame{Op: OpUpdated, Table: table, Payload: payload}
}

func (s *Server) frameInsert(f Frame) Frame {
	s.requests.Add(1)
	s.updates.Add(1)
	eng, err := s.table(f.Table)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	if len(f.Payload) != 4+packedRuleLen {
		s.parseFails.Add(1)
		return errorFrame(f.Table, fmt.Sprintf("insert payload must be %d bytes, got %d", 4+packedRuleLen, len(f.Payload)))
	}
	pos := int(int32(binary.LittleEndian.Uint32(f.Payload[:4])))
	r, err := decodeRule(f.Payload[4:])
	if err != nil {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "rule: "+err.Error())
	}
	res, err := eng.Insert(pos, r)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	return updatedFrame(f.Table, res.ID, res)
}

func (s *Server) frameDelete(f Frame) Frame {
	s.requests.Add(1)
	s.updates.Add(1)
	eng, err := s.table(f.Table)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	if len(f.Payload) != 4 {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "delete payload must be 4 bytes")
	}
	id := int(int32(binary.LittleEndian.Uint32(f.Payload)))
	res, err := eng.Delete(id)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	return updatedFrame(f.Table, id, res)
}

func (s *Server) frameSave(f Frame) Frame {
	s.requests.Add(1)
	s.artifactOps.Add(1)
	eng, err := s.table(f.Table)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	path := string(f.Payload)
	if path == "" {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "save needs a path payload")
	}
	if err := eng.SaveArtifact(path); err != nil {
		return errorFrame(f.Table, err.Error())
	}
	return updatedFrame(f.Table, -1, engine.UpdateResult{})
}

func (s *Server) frameLoad(f Frame) Frame {
	s.requests.Add(1)
	s.artifactOps.Add(1)
	eng, err := s.table(f.Table)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	path := string(f.Payload)
	if path == "" {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "load needs a path payload")
	}
	res, err := eng.LoadArtifact(path)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	return updatedFrame(f.Table, -1, res)
}

func (s *Server) frameListTables(f Frame) Frame {
	def, _ := s.tables.Default()
	tabs := s.tables.List()
	payload := binary.LittleEndian.AppendUint16(nil, uint16(len(tabs)))
	for _, tab := range tabs {
		payload = binary.LittleEndian.AppendUint32(payload, tab.ID)
		flags := byte(0)
		if def != nil && def.ID == tab.ID {
			flags = 1
		}
		payload = append(payload, flags, byte(len(tab.Name)))
		payload = append(payload, tab.Name...)
	}
	return Frame{Op: OpTableList, Table: f.Table, Payload: payload}
}

func (s *Server) frameCreateTable(f Frame) Frame {
	if len(f.Payload) < 1 {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "create-table payload too short")
	}
	nameLen := int(f.Payload[0])
	if len(f.Payload) < 1+nameLen {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "create-table payload shorter than its name length")
	}
	name := string(f.Payload[1 : 1+nameLen])
	artifact := string(f.Payload[1+nameLen:])
	if name == "" || artifact == "" {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "create-table needs a name and an artifact path")
	}
	opts := s.TableCreateOptions
	opts.TelemetryTable = name
	// A co-located journal is the artifact's crash-recovery companion: a
	// table recreated from an artifact whose journal still holds acknowledged
	// updates must replay them, not silently serve the stale checkpoint.
	if jp := engine.JournalPathFor(artifact); opts.JournalPath == "" {
		if _, err := os.Stat(jp); err == nil {
			opts.JournalPath = jp
		}
	}
	// A journal a live table appends to is refused before this engine
	// opens it.
	if err := s.tables.CheckJournalFree(opts.JournalPath); err != nil {
		return errorFrame(f.Table, err.Error())
	}
	eng, err := engine.NewEngineFromArtifact(artifact, opts)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	tab, err := s.tables.Create(name, eng)
	if err != nil {
		eng.Close()
		return errorFrame(f.Table, err.Error())
	}
	payload := binary.LittleEndian.AppendUint32(nil, tab.ID)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(tab.Engine.Len()))
	return Frame{Op: OpTableInfo, Table: tab.ID, Payload: payload}
}

func (s *Server) frameDropTable(f Frame) Frame {
	tab, ok := s.tables.GetByID(f.Table)
	if !ok {
		return errorFrame(f.Table, fmt.Sprintf("unknown table %d", f.Table))
	}
	if err := s.tables.Drop(tab.Name); err != nil {
		return errorFrame(f.Table, err.Error())
	}
	payload := binary.LittleEndian.AppendUint32(nil, tab.ID)
	payload = binary.LittleEndian.AppendUint32(payload, 0)
	return Frame{Op: OpTableInfo, Table: tab.ID, Payload: payload}
}
