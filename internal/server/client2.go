package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// ClientV2 speaks wire protocol v2 (framed binary, see frame.go) to a
// classification server over any byte stream. Every method operates on the
// client's current table (UseTable; the default table, ID 0, initially), so
// one connection can work many tables. ClientV2 is not safe for concurrent
// use; open one per goroutine, or pipeline explicitly.
//
// A transport error (a failed write, a response frame not read whole and
// intact) is returned by every later call too: a late or torn answer is
// never taken for the next request's. OpError answers leave it usable.
//
// The client end's buffers live as long as the connection and are reused by
// every call, so once they have grown to the connection's working size a
// round trip makes no heap allocation.
type ClientV2 struct {
	conn  net.Conn
	r     *bufio.Reader
	table uint32
	// enc backs the request frame: each op builds it in place and hands it
	// to the connection in one Write. Free for reuse once Write returns.
	enc []byte
	// body backs the response frame last read; its payload is decoded before
	// the op returns, so nothing a caller holds aliases it.
	body []byte
	// res backs the slice ClassifyBatch returns, which the caller may read
	// until its next call on this client.
	res []engine.Result
	// err is the first transport error; once set, every call returns it.
	err error
}

// TableInfo describes one table of a multi-table server.
type TableInfo struct {
	ID      uint32
	Name    string
	Default bool
}

// DialV2 connects to a classification server speaking protocol v2.
func DialV2(ctx context.Context, addr string) (*ClientV2, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return NewClientV2(conn), nil
}

// NewClientV2 returns a client speaking protocol v2 on conn, any byte stream
// to a server (a TCP connection, a shared-memory ring's client end).
func NewClientV2(conn net.Conn) *ClientV2 {
	return &ClientV2{conn: conn, r: bufio.NewReader(conn)}
}

// Close closes the connection.
func (c *ClientV2) Close() error { return c.conn.Close() }

// UseTable selects the table subsequent operations address (0 = the
// server's default table). Use ResolveTable to map a name to an ID.
func (c *ClientV2) UseTable(id uint32) { c.table = id }

// begin opens a request frame for the current table in c.enc; the op appends
// its payload to the returned slice and passes it to roundTrip.
func (c *ClientV2) begin(op uint8) []byte { return beginFrame(c.enc[:0], op, c.table) }

// roundTrip closes the request frame begun in c.enc, sends it in one write
// and reads one response, surfacing OpError responses as errors. The
// response's payload aliases c.body: it is valid until the next roundTrip.
func (c *ClientV2) roundTrip(req []byte) (Frame, error) {
	if c.err != nil {
		return Frame{}, c.err
	}
	c.enc = endFrame(req, 0)
	if _, c.err = c.conn.Write(c.enc); c.err != nil {
		return Frame{}, c.err
	}
	resp, body, err := readFrameInto(c.r, c.body)
	c.body = body
	if err != nil {
		c.err = err
		return Frame{}, err
	}
	if resp.Op == OpError {
		return Frame{}, fmt.Errorf("server: %s", resp.Payload)
	}
	return resp, nil
}

// Ping round-trips an empty frame (liveness and latency probe).
func (c *ClientV2) Ping() error {
	resp, err := c.roundTrip(c.begin(OpPing))
	if err != nil {
		return err
	}
	if resp.Op != OpPong {
		return fmt.Errorf("server: unexpected response op %d to ping", resp.Op)
	}
	return nil
}

// ResolveTable returns the ID of the named table.
func (c *ClientV2) ResolveTable(name string) (uint32, error) {
	tables, err := c.ListTables()
	if err != nil {
		return 0, err
	}
	for _, t := range tables {
		if t.Name == name {
			return t.ID, nil
		}
	}
	return 0, fmt.Errorf("server: no table named %q", name)
}

// ListTables returns the server's tables. Single-table servers report one
// default table on ID 0.
func (c *ClientV2) ListTables() ([]TableInfo, error) {
	resp, err := c.roundTrip(c.begin(OpListTables))
	if err != nil {
		return nil, err
	}
	if resp.Op != OpTableList || len(resp.Payload) < 2 {
		return nil, errors.New("server: malformed table list")
	}
	n := int(binary.LittleEndian.Uint16(resp.Payload[:2]))
	b := resp.Payload[2:]
	out := make([]TableInfo, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 6 {
			return nil, errors.New("server: truncated table list")
		}
		info := TableInfo{ID: binary.LittleEndian.Uint32(b[:4]), Default: b[4]&1 != 0}
		nameLen := int(b[5])
		b = b[6:]
		if len(b) < nameLen {
			return nil, errors.New("server: truncated table name")
		}
		info.Name = string(b[:nameLen])
		b = b[nameLen:]
		out = append(out, info)
	}
	return out, nil
}

// Classify looks one packet up in the current table. It returns the rule ID
// and priority, or ok=false when no rule matches.
func (c *ClientV2) Classify(p rule.Packet) (id, priority int, ok bool, err error) {
	resp, err := c.roundTrip(appendPacket(c.begin(OpClassify), p))
	if err != nil {
		return 0, 0, false, err
	}
	if resp.Op != OpResult || len(resp.Payload) != packedResultLen {
		return 0, 0, false, errors.New("server: malformed classify response")
	}
	id, priority, ok = decodeResult(resp.Payload)
	return id, priority, ok, nil
}

// ClassifyBatch is ClassifyBatchInto into a slice the client owns, valid
// only until the next call on it (the bufio.Scanner.Bytes contract).
func (c *ClientV2) ClassifyBatch(ps []rule.Packet) ([]engine.Result, error) {
	if cap(c.res) < len(ps) {
		c.res = make([]engine.Result, len(ps))
	}
	if err := c.ClassifyBatchInto(ps, c.res[:len(ps)]); err != nil {
		return nil, err
	}
	return c.res[:len(ps)], nil
}

// ClassifyBatchInto classifies ps[i] into out[i] against the current table;
// out must be at least as long as ps. Each result is written whole: OK and
// the winning rule's ID and priority (the wire carries no ranges). Batches
// beyond MaxBatch go as sequential request/response rounds — the server
// answers frames serially, so writing them all up front could deadlock both
// ends once the transport's buffers fill with unread responses.
func (c *ClientV2) ClassifyBatchInto(ps []rule.Packet, out []engine.Result) error {
	if len(out) < len(ps) {
		return fmt.Errorf("server: batch: out shorter than ps (%d < %d)", len(out), len(ps))
	}
	for lo := 0; lo < len(ps); lo += MaxBatch {
		chunk := ps[lo:min(lo+MaxBatch, len(ps))]
		req := binary.LittleEndian.AppendUint32(c.begin(OpBatch), uint32(len(chunk)))
		for _, p := range chunk {
			req = appendPacket(req, p)
		}
		resp, err := c.roundTrip(req)
		if err != nil {
			return err
		}
		if resp.Op != OpBatchResult || len(resp.Payload) < 4 {
			return errors.New("server: malformed batch response")
		}
		// Checked per chunk and before decoding: a wrong count would misalign
		// every later answer, and one too large would write past this chunk.
		if n := int(binary.LittleEndian.Uint32(resp.Payload[:4])); n != len(chunk) {
			return fmt.Errorf("server: batch returned %d results for %d packets", n, len(chunk))
		}
		if len(resp.Payload) != 4+len(chunk)*packedResultLen {
			return errors.New("server: truncated batch response")
		}
		for j := range chunk {
			id, priority, ok := decodeResult(resp.Payload[4+j*packedResultLen:])
			out[lo+j] = engine.Result{Rule: rule.Rule{ID: id, Priority: priority}, OK: ok}
		}
	}
	return nil
}

// decodeUpdated unpacks an OpUpdated payload.
func decodeUpdated(f Frame) (id int, version uint64, rules int, err error) {
	if f.Op != OpUpdated || len(f.Payload) != 16 {
		return 0, 0, 0, errors.New("server: malformed update response")
	}
	id = int(int32(binary.LittleEndian.Uint32(f.Payload[:4])))
	version = binary.LittleEndian.Uint64(f.Payload[4:12])
	rules = int(binary.LittleEndian.Uint32(f.Payload[12:16]))
	return id, version, rules, nil
}

// AddRule inserts a rule at priority position pos in the current table and
// returns the assigned rule ID and new snapshot version. Only the rule's
// ranges travel; identity is assigned by the server.
func (c *ClientV2) AddRule(pos int, r rule.Rule) (id int, version uint64, err error) {
	req := binary.LittleEndian.AppendUint32(c.begin(OpInsert), uint32(int32(pos)))
	resp, err := c.roundTrip(appendRule(req, r))
	if err != nil {
		return 0, 0, err
	}
	id, version, _, err = decodeUpdated(resp)
	return id, version, err
}

// DeleteRule removes the rule with the given ID from the current table.
func (c *ClientV2) DeleteRule(id int) (version uint64, err error) {
	resp, err := c.roundTrip(binary.LittleEndian.AppendUint32(c.begin(OpDelete), uint32(int32(id))))
	if err != nil {
		return 0, err
	}
	_, version, _, err = decodeUpdated(resp)
	return version, err
}

// SaveArtifact asks the server to persist the current table's classifier as
// a compiled artifact at path (on the server's filesystem).
func (c *ClientV2) SaveArtifact(path string) error {
	resp, err := c.roundTrip(append(c.begin(OpSave), path...))
	if err != nil {
		return err
	}
	_, _, _, err = decodeUpdated(resp)
	return err
}

// LoadArtifact asks the server to hot-swap the compiled artifact at path in
// as the current table's classifier.
func (c *ClientV2) LoadArtifact(path string) (version uint64, rules int, err error) {
	resp, err := c.roundTrip(append(c.begin(OpLoad), path...))
	if err != nil {
		return 0, 0, err
	}
	_, version, rules, err = decodeUpdated(resp)
	return version, rules, err
}

// Stats returns the server's one-line stats summary for the current table
// ("stats requests=N matches=N parse-failures=N", plus the online-update
// fields when the table has them).
func (c *ClientV2) Stats() (string, error) {
	resp, err := c.roundTrip(c.begin(OpStats))
	if err != nil {
		return "", err
	}
	if resp.Op != OpStatsResult {
		return "", errors.New("server: malformed stats response")
	}
	return string(resp.Payload), nil
}

// CreateTable asks a multi-table server to create a new table warm-started
// from the compiled artifact at path (on the server's filesystem). It
// returns the new table's wire ID and rule count.
func (c *ClientV2) CreateTable(name, artifactPath string) (id uint32, rules int, err error) {
	if len(name) > 255 {
		return 0, 0, errors.New("server: table name too long")
	}
	req := append(append(c.begin(OpCreateTable), byte(len(name))), name...)
	resp, err := c.roundTrip(append(req, artifactPath...))
	if err != nil {
		return 0, 0, err
	}
	if resp.Op != OpTableInfo || len(resp.Payload) != 8 {
		return 0, 0, errors.New("server: malformed create-table response")
	}
	return binary.LittleEndian.Uint32(resp.Payload[:4]),
		int(binary.LittleEndian.Uint32(resp.Payload[4:8])), nil
}

// DropTable asks a multi-table server to drop the table with the given ID.
func (c *ClientV2) DropTable(id uint32) error {
	resp, err := c.roundTrip(beginFrame(c.enc[:0], OpDropTable, id))
	if err != nil {
		return err
	}
	if resp.Op != OpTableInfo {
		return errors.New("server: malformed drop-table response")
	}
	return nil
}
