package server

// Server side of the wire protocol (see frame.go for the frame layout):
// classification, pipelined batches, live updates, artifact save/load,
// stats and table administration. Each frame names the table it operates
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
func appendResult(dst []byte, res engine.Result) []byte {
	status := byte(0)
	if res.OK {
		status = 1
	}
	dst = append(dst, status)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(res.Rule.ID)))
	return binary.LittleEndian.AppendUint32(dst, uint32(int32(res.Rule.Priority)))
}

// decodeResult unpacks one classification result; b must hold
// packedResultLen bytes.
func decodeResult(b []byte) engine.Result {
	return engine.Result{
		OK: b[0] != 0,
		Rule: rule.Rule{
			ID:       int(int32(binary.LittleEndian.Uint32(b[1:5]))),
			Priority: int(int32(binary.LittleEndian.Uint32(b[5:9]))),
		},
	}
}

// v2Buffers are one connection's scratch buffers, reused frame to frame so
// the hot path (pipelined batches) performs no per-frame heap
// allocations once they have grown to the connection's working size. They
// are owned by the single handler goroutine; a frame's request payload and
// its response never overlap in time (the response is fully encoded before
// the next frame is read).
type v2Buffers struct {
	// body backs the request frame's payload (+ CRC tail).
	body []byte
	// resp backs the batch response payload (the hot response).
	resp []byte
	// enc backs the encoded response frame written to the socket.
	enc []byte
}

// handle serves one connection until EOF, a framing or write error, or a
// drain: a sequence of frames, answered in order. Each request is bracketed
// by the connection's busy state so a concurrent Shutdown never interrupts
// it mid-request. Clients may pipeline (send many frames before reading
// responses); the write buffer is only flushed when no further request
// bytes are already buffered, so pipelined batches do not pay one syscall
// per frame.
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
		var resp Frame
		if s.Telemetry != nil {
			t0 := time.Now()
			resp = s.respondFrame(f, &bufs)
			ns := time.Since(t0).Nanoseconds()
			s.Telemetry.ServerV2.RecordNanos(uint64(ns), ns)
		} else {
			resp = s.respondFrame(f, &bufs)
		}
		bufs.enc = AppendFrame(bufs.enc[:0], resp)
		if _, err := w.Write(bufs.enc); err != nil {
			conn.endRequest()
			return
		}
		if br.Buffered() == 0 {
			if w.Flush() != nil {
				conn.endRequest()
				return
			}
		}
		if conn.endRequest() {
			w.Flush()
			return
		}
	}
}

// errorFrame builds an OpError response.
func errorFrame(table uint32, msg string) Frame {
	return Frame{Op: OpError, Table: table, Payload: []byte(msg)}
}

// respondFrame answers one request frame. All errors inside a well-formed
// frame come back as OpError frames; the connection stays usable. The
// batch path builds its response into bufs.resp; every other response is
// small and freshly allocated.
func (s *Server) respondFrame(f Frame, bufs *v2Buffers) Frame {
	switch f.Op {
	case OpPing:
		return Frame{Op: OpPong, Table: f.Table}
	case OpClassify:
		return s.frameClassify(f)
	case OpBatch:
		return s.frameBatch(f, bufs)
	case OpInsert:
		return s.frameInsert(f)
	case OpDelete:
		return s.frameDelete(f)
	case OpSave:
		return s.frameSave(f)
	case OpLoad:
		return s.frameLoad(f)
	case OpStats:
		s.requests.Add(1)
		cls, err := s.tableClassifier(f.Table)
		if err != nil {
			return errorFrame(f.Table, err.Error())
		}
		return Frame{Op: OpStatsResult, Table: f.Table, Payload: []byte(s.statsLine(cls))}
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

func (s *Server) frameClassify(f Frame) Frame {
	s.requests.Add(1)
	cls, err := s.tableClassifier(f.Table)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	if len(f.Payload) != packedPacketLen {
		s.parseFails.Add(1)
		return errorFrame(f.Table, fmt.Sprintf("classify payload must be %d bytes, got %d", packedPacketLen, len(f.Payload)))
	}
	r, ok := cls.Classify(decodePacket(f.Payload))
	if ok {
		s.matches.Add(1)
	}
	return Frame{Op: OpResult, Table: f.Table,
		Payload: appendResult(make([]byte, 0, packedResultLen), engine.Result{Rule: r, OK: ok})}
}

func (s *Server) frameBatch(f Frame, bufs *v2Buffers) Frame {
	cls, err := s.tableClassifier(f.Table)
	if err != nil {
		s.requests.Add(1)
		return errorFrame(f.Table, err.Error())
	}
	if len(f.Payload) < 4 {
		s.requests.Add(1)
		s.parseFails.Add(1)
		return errorFrame(f.Table, "batch payload too short")
	}
	n := int(binary.LittleEndian.Uint32(f.Payload[:4]))
	if n <= 0 || n > MaxBatch {
		s.requests.Add(1)
		return errorFrame(f.Table, fmt.Sprintf("batch size must be in [1, %d]", MaxBatch))
	}
	if want := 4 + n*packedPacketLen; len(f.Payload) != want {
		s.requests.Add(1)
		s.parseFails.Add(1)
		return errorFrame(f.Table, fmt.Sprintf("batch payload must be %d bytes for %d packets, got %d", want, n, len(f.Payload)))
	}
	s.requests.Add(int64(n))
	s.batches.Add(1)
	packets := engine.GetPacketBuf(n)
	defer engine.PutPacketBuf(packets)
	body := f.Payload[4:]
	for i := 0; i < n; i++ {
		packets[i] = decodePacket(body[i*packedPacketLen:])
	}
	out := engine.GetResultBuf(n)
	defer engine.PutResultBuf(out)
	if bc, ok := cls.(BatchClassifier); ok {
		bc.ClassifyBatch(packets, out)
	} else {
		for i, p := range packets {
			out[i].Rule, out[i].OK = cls.Classify(p)
		}
	}
	payload := binary.LittleEndian.AppendUint32(bufs.resp[:0], uint32(n))
	matched := 0
	for i := 0; i < n; i++ {
		if out[i].OK {
			matched++
		}
		payload = appendResult(payload, out[i])
	}
	s.matches.Add(int64(matched))
	bufs.resp = payload
	return Frame{Op: OpBatchResult, Table: f.Table, Payload: payload}
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
	cls, err := s.tableClassifier(f.Table)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	up, ok := cls.(Updater)
	if !ok {
		return errorFrame(f.Table, "classifier does not support live updates")
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
	res, err := up.Insert(pos, r)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	return updatedFrame(f.Table, res.ID, res)
}

func (s *Server) frameDelete(f Frame) Frame {
	s.requests.Add(1)
	s.updates.Add(1)
	cls, err := s.tableClassifier(f.Table)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	up, ok := cls.(Updater)
	if !ok {
		return errorFrame(f.Table, "classifier does not support live updates")
	}
	if len(f.Payload) != 4 {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "delete payload must be 4 bytes")
	}
	id := int(int32(binary.LittleEndian.Uint32(f.Payload)))
	res, err := up.Delete(id)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	return updatedFrame(f.Table, id, res)
}

func (s *Server) frameSave(f Frame) Frame {
	s.requests.Add(1)
	s.artifactOps.Add(1)
	cls, err := s.tableClassifier(f.Table)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	st, ok := cls.(ArtifactStore)
	if !ok {
		return errorFrame(f.Table, "classifier does not support artifacts")
	}
	path := string(f.Payload)
	if path == "" {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "save needs a path payload")
	}
	if err := st.SaveArtifact(path); err != nil {
		return errorFrame(f.Table, err.Error())
	}
	return updatedFrame(f.Table, -1, engine.UpdateResult{})
}

func (s *Server) frameLoad(f Frame) Frame {
	s.requests.Add(1)
	s.artifactOps.Add(1)
	cls, err := s.tableClassifier(f.Table)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	st, ok := cls.(ArtifactStore)
	if !ok {
		return errorFrame(f.Table, "classifier does not support artifacts")
	}
	path := string(f.Payload)
	if path == "" {
		s.parseFails.Add(1)
		return errorFrame(f.Table, "load needs a path payload")
	}
	res, err := st.LoadArtifact(path)
	if err != nil {
		return errorFrame(f.Table, err.Error())
	}
	return updatedFrame(f.Table, -1, res)
}

func (s *Server) frameListTables(f Frame) Frame {
	type entry struct {
		id   uint32
		name string
		def  bool
	}
	var entries []entry
	if s.tables != nil {
		def, _ := s.tables.Default()
		for _, tab := range s.tables.List() {
			entries = append(entries, entry{id: tab.ID, name: tab.Name, def: def != nil && def.ID == tab.ID})
		}
	} else {
		// A single-table server presents its classifier as one default
		// table on ID 0, so clients need no special case.
		entries = []entry{{id: 0, name: "default", def: true}}
	}
	payload := binary.LittleEndian.AppendUint16(nil, uint16(len(entries)))
	for _, e := range entries {
		payload = binary.LittleEndian.AppendUint32(payload, e.id)
		flags := byte(0)
		if e.def {
			flags = 1
		}
		payload = append(payload, flags, byte(len(e.name)))
		payload = append(payload, e.name...)
	}
	return Frame{Op: OpTableList, Table: f.Table, Payload: payload}
}

func (s *Server) frameCreateTable(f Frame) Frame {
	if s.tables == nil {
		return errorFrame(f.Table, "not a multi-table server")
	}
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
	// A co-located journal is the artifact's crash-recovery companion: a
	// table recreated from an artifact whose journal still holds acknowledged
	// updates must replay them, not silently serve the stale checkpoint.
	if jp := engine.JournalPathFor(artifact); opts.JournalPath == "" {
		if _, err := os.Stat(jp); err == nil {
			opts.JournalPath = jp
		}
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
	payload = binary.LittleEndian.AppendUint32(payload, uint32(tab.Engine.Rules().Len()))
	return Frame{Op: OpTableInfo, Table: tab.ID, Payload: payload}
}

func (s *Server) frameDropTable(f Frame) Frame {
	if s.tables == nil {
		return errorFrame(f.Table, "not a multi-table server")
	}
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
