// Package server exposes packet classifiers over TCP so that the decision
// trees built by this repository can be queried by external tools (or by the
// bundled cmd/classifyd client). Two wire protocols are spoken on one port,
// selected per connection by its first byte: the framed binary protocol v2
// (table-addressed, pipelined, CRC-guarded — see frame.go and proto2.go)
// and the original v1 text line protocol described here:
//
//	request:  "<srcIP> <dstIP> <srcPort> <dstPort> <proto>\n"
//	          where the IPs are dotted quads or decimal integers
//	response: "match <ruleID> priority <priority>\n"  or
//	          "no-match\n"                            or
//	          "error <message>\n"
//
// Batch lookups amortise round trips: "batch <n>\n" followed by n packet
// lines returns exactly n response lines in order. When the classifier is an
// engine.Engine (or anything implementing BatchClassifier) the whole batch
// is classified against one coherent snapshot with sharded lookup.
//
// Live rule updates are available when the classifier implements Updater
// (engine.Engine does):
//
//	"add <pos> @<classbench rule line>\n" -> "ok id=<id> version=<v> rules=<n>\n"
//	"del <ruleID>\n"                      -> "ok version=<v> rules=<n>\n"
//
// Compiled-artifact administration is available when the classifier
// implements ArtifactStore (engine.Engine does, for compiled tree
// backends):
//
//	"save <path>\n" -> "ok saved <path>\n"
//	"load <path>\n" -> "ok version=<v> rules=<n>\n"
//
// The served classifier is any Classifier implementation: an engine.Engine
// directly, or a dataplane.Dataplane fronting one
// (classifyd -cores) — the dataplane satisfies every optional interface
// below, so handlers submit batches to its per-core rings without knowing
// which serving architecture is behind them.
//
// The special request "stats\n" returns one line of server statistics
// (request counters, plus the online-update subsystem's overlay size,
// tombstones, generation, compaction and journal state when the served
// engine has it enabled — see UpdaterStatser) and "quit\n" closes the
// connection. One goroutine serves each connection; the
// classifier lookup itself is read-only and shared, and updates swap in new
// snapshots without blocking in-flight lookups.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/telemetry"
)

// Classifier is the minimal lookup interface the server exposes; decision
// trees, multi-tree classifiers, the linear-search reference and
// engine.Engine all satisfy it.
type Classifier interface {
	Classify(p rule.Packet) (rule.Rule, bool)
}

// BatchClassifier is the optional batch interface. When the served
// classifier implements it (engine.Engine does), "batch" requests are
// classified in one sharded call against a single snapshot instead of one
// lookup per line.
type BatchClassifier interface {
	ClassifyBatch(ps []rule.Packet, out []engine.Result)
}

// Updater is the optional live-update interface behind the "add" and "del"
// requests. engine.Engine implements it with RCU snapshot swaps.
type Updater interface {
	Insert(pos int, r rule.Rule) (engine.UpdateResult, error)
	Delete(id int) (engine.UpdateResult, error)
}

// ArtifactStore is the optional interface behind the "save" and "load"
// admin requests: persisting the served classifier as a compiled artifact
// and hot-swapping an artifact in (another RCU snapshot swap).
// engine.Engine implements it for compiled tree backends.
type ArtifactStore interface {
	SaveArtifact(path string) error
	LoadArtifact(path string) (engine.UpdateResult, error)
}

// UpdaterStatser is the optional interface that lets "stats" expose the
// online-update subsystem's state (overlay size, tombstones, generation,
// compactions, journal). engine.Engine implements it.
type UpdaterStatser interface {
	UpdaterStats() engine.UpdaterStats
}

// MaxBatch bounds the packet count of one "batch" request.
const MaxBatch = 65536

// DefaultBatchReadTimeout bounds how long a handler waits for the rest of a
// request whose header has been read (a v1 batch body, a v2 frame body).
// Without it a client that sends "batch 1000\n" and then stalls would pin
// its connection goroutine — and the engine pool buffers it holds — forever.
const DefaultBatchReadTimeout = 30 * time.Second

// Server serves classification requests over TCP. Both wire protocols are
// spoken on the same port: the v1 text protocol described above, and the
// framed binary protocol v2 (see frame.go), selected per connection by its
// first byte.
type Server struct {
	classifier Classifier
	// tables, when non-nil, makes this a multi-table server: v1 requests
	// and v2 frames addressed to table 0 go to the default table, other v2
	// frames to the table their header names.
	tables *engine.Tables

	// BatchReadTimeout overrides DefaultBatchReadTimeout when positive; a
	// negative value disables the deadline. Set it before Listen.
	BatchReadTimeout time.Duration

	// TableCreateOptions is the engine option base for tables created over
	// the wire (OpCreateTable), so wire-created tables inherit the daemon's
	// serving defaults (shards, binth, compaction) instead of zero options.
	// Set it before Listen; multi-table servers only.
	TableCreateOptions engine.Options

	// Telemetry, when non-nil, records per-request handling latency into
	// the shared online-telemetry histograms (proto=v1/v2). Set it before
	// Listen; typically the same instance the engines record into.
	Telemetry *telemetry.Telemetry

	mu       sync.Mutex
	listener net.Listener
	wg       sync.WaitGroup
	closed   bool
	// conns tracks live connections so Shutdown can drain them: handlers
	// waiting for a next request are unblocked immediately, handlers inside
	// a request finish it first, and stragglers are force-closed when the
	// drain context expires.
	conns map[*servedConn]struct{}

	// counters (atomic).
	requests    atomic.Int64
	matches     atomic.Int64
	parseFails  atomic.Int64
	batches     atomic.Int64
	updates     atomic.Int64
	artifactOps atomic.Int64
	tableOps    atomic.Int64
}

// New creates a single-table server around the classifier.
func New(c Classifier) *Server {
	return &Server{classifier: c}
}

// NewTables creates a multi-table server: the v1 text protocol (and v2
// frames addressed to table 0) serve the manager's default table, and v2
// frames can address — and administer — every table by ID.
func NewTables(t *engine.Tables) *Server {
	return &Server{tables: t}
}

// tableClassifier resolves the classifier a request addresses. Table 0 is
// the default table; non-zero IDs exist only on multi-table servers.
func (s *Server) tableClassifier(id uint32) (Classifier, error) {
	if s.tables != nil {
		tab, ok := s.tables.GetByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown table %d", id)
		}
		return tab.Engine, nil
	}
	if id != 0 {
		return nil, fmt.Errorf("not a multi-table server (table %d unavailable)", id)
	}
	return s.classifier, nil
}

// batchReadTimeout returns the effective deadline for reading the body of a
// started request.
func (s *Server) batchReadTimeout() time.Duration {
	switch {
	case s.BatchReadTimeout > 0:
		return s.BatchReadTimeout
	case s.BatchReadTimeout < 0:
		return 0
	default:
		return DefaultBatchReadTimeout
	}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serve loops run in background goroutines until
// Close is called.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("server: already closed")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &servedConn{Conn: conn}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if s.conns == nil {
			s.conns = make(map[*servedConn]struct{})
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, sc)
				s.mu.Unlock()
			}()
			s.handle(sc)
		}()
	}
}

// servedConn pairs a connection with its drain state. Draining must never
// cut a request in half: a batch whose header has been read is always fully
// read, classified and answered. The deadline that unblocks an idle
// handler is therefore only armed while the handler sits between requests.
type servedConn struct {
	net.Conn
	mu sync.Mutex
	// busy is true while the handler is inside one request (reading a batch
	// body, classifying, writing responses).
	busy bool
	// drainOnIdle asks the handler to exit once the current request ends.
	drainOnIdle bool
}

// beginRequest marks the handler busy and replaces any drain deadline with
// the body deadline, on both directions: the request's remaining reads (a
// batch body, a frame body) and its response writes must finish within it,
// so a client that stalls mid-request — or stops reading responses while
// its pipelined requests keep the server writing — cannot pin its handler
// goroutine and the pooled buffers it holds forever. bodyTimeout 0 means
// no deadline.
func (c *servedConn) beginRequest(bodyTimeout time.Duration) {
	c.mu.Lock()
	c.busy = true
	if bodyTimeout > 0 {
		c.Conn.SetDeadline(time.Now().Add(bodyTimeout))
	} else {
		c.Conn.SetDeadline(time.Time{})
	}
	c.mu.Unlock()
}

// endRequest marks the handler idle again and reports whether it should
// exit because a drain started while the request was in flight. When the
// handler stays, the body deadline is disarmed so the idle wait for the
// next request is unbounded again.
func (c *servedConn) endRequest() (draining bool) {
	c.mu.Lock()
	c.busy = false
	draining = c.drainOnIdle
	if !draining {
		c.Conn.SetDeadline(time.Time{})
	}
	c.mu.Unlock()
	return draining
}

// drainGrace is how long an idle connection's handler keeps reading after a
// drain starts. Requests already on the wire (a batch whose header the
// handler has not scanned yet) are picked up and served within the grace;
// truly idle connections exit when it expires.
const drainGrace = 50 * time.Millisecond

// drain asks the connection's handler to exit as soon as it is between
// requests; if it is idle right now, the grace read deadline bounds how
// long it may keep waiting for one last request.
func (c *servedConn) drain() {
	c.mu.Lock()
	c.drainOnIdle = true
	if !c.busy {
		c.Conn.SetReadDeadline(time.Now().Add(drainGrace))
	}
	c.mu.Unlock()
}

// Close stops the listener and waits for in-flight connections to finish.
// Connected idle clients keep their handlers alive, so Close can block
// indefinitely; servers exposed to external clients should prefer Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown gracefully stops the server: it stops accepting connections,
// lets every in-flight request (including a batch mid-classification)
// finish and be answered, unblocks handlers that are idle waiting for a
// next request, and waits for all of them to exit. If the context expires
// first, remaining connections are force-closed before returning the
// context's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.drain()
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Stats summarises the server's request counters. Requests counts every
// classified packet and admin request (the original three fields keep their
// v1 meanings); the finer-grained counters below slice the same traffic by
// kind for the admin plane's /metrics endpoint.
type Stats struct {
	Requests   int64
	Matches    int64
	ParseFails int64
	// Batches counts batch requests served (v1 "batch" plus v2 OpBatch),
	// each of which contributes its packet count to Requests.
	Batches int64
	// Updates counts live rule updates (v1 add/del, v2 insert/delete).
	Updates int64
	// ArtifactOps counts artifact admin requests (save/load).
	ArtifactOps int64
	// TableOps counts table admin requests (v2 list/create/drop-table).
	TableOps int64
	// ActiveConns is the number of currently connected clients.
	ActiveConns int64
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := int64(len(s.conns))
	s.mu.Unlock()
	return Stats{
		Requests:    s.requests.Load(),
		Matches:     s.matches.Load(),
		ParseFails:  s.parseFails.Load(),
		Batches:     s.batches.Load(),
		Updates:     s.updates.Load(),
		ArtifactOps: s.artifactOps.Load(),
		TableOps:    s.tableOps.Load(),
		ActiveConns: active,
	}
}

// handle serves one connection until EOF, "quit", a write error or a
// drain. The wire protocol is selected by the connection's first byte: a
// frame-magic byte (which no v1 text request can start with) selects the
// framed binary protocol v2, anything else the v1 text protocol, so v1
// clients keep working against a v2-capable server unchanged.
func (s *Server) handle(conn *servedConn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4096)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	w := bufio.NewWriter(conn)
	if first[0] == frameMagic[0] {
		s.handleV2(conn, br, w)
		return
	}
	s.handleV1(conn, br, w)
}

// handleV1 serves the v1 text protocol. Each request is bracketed by the
// connection's busy state so a concurrent Shutdown never interrupts it
// mid-request.
func (s *Server) handleV1(conn *servedConn, br *bufio.Reader, w *bufio.Writer) {
	scanner := bufio.NewScanner(br)
	scanner.Buffer(make([]byte, 0, 4096), 1<<20)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" {
			w.Flush()
			return
		}
		conn.beginRequest(s.batchReadTimeout())
		var ok bool
		if s.Telemetry != nil {
			t0 := time.Now()
			ok = s.serveLine(scanner, w, line)
			ns := time.Since(t0).Nanoseconds()
			s.Telemetry.ServerV1.RecordNanos(uint64(ns), ns)
		} else {
			ok = s.serveLine(scanner, w, line)
		}
		draining := conn.endRequest()
		if !ok {
			return
		}
		if draining {
			w.Flush()
			return
		}
	}
}

// v1Classifier resolves the classifier v1 requests target: the default
// table on a multi-table server (resolved per request, since Swap can
// re-point it), the wrapped classifier otherwise.
func (s *Server) v1Classifier() (Classifier, error) {
	return s.tableClassifier(0)
}

// statsLine renders the one-line stats response shared by both protocols.
func (s *Server) statsLine(cls Classifier) string {
	st := s.Stats()
	line := fmt.Sprintf("stats requests=%d matches=%d parse-failures=%d", st.Requests, st.Matches, st.ParseFails)
	// The online-update subsystem's state rides on the same line so old
	// clients that parse the leading fields keep working.
	if us, ok := cls.(UpdaterStatser); ok {
		if u := us.UpdaterStats(); u.Enabled {
			compacting := 0
			if u.Compacting {
				compacting = 1
			}
			line += fmt.Sprintf(" overlay=%d tombstones=%d rules=%d generation=%d compactions=%d compacting=%d journal-records=%d",
				u.OverlayRules, u.Tombstones, u.Rules, u.Version, u.Compactions, compacting, u.JournalRecords)
		}
	}
	return line
}

// serveLine answers one request line (reading a batch body from the
// scanner when needed) and reports whether the connection is still usable.
func (s *Server) serveLine(scanner *bufio.Scanner, w *bufio.Writer, line string) bool {
	cls, err := s.v1Classifier()
	if err != nil {
		return writeLine(w, "error "+err.Error())
	}
	if line == "stats" {
		return writeLine(w, s.statsLine(cls))
	}
	if n, ok := parseBatchHeader(line); ok {
		return s.handleBatch(scanner, w, cls, n)
	}
	if rest, ok := strings.CutPrefix(line, "add "); ok {
		return writeLine(w, s.respondAdd(cls, rest))
	}
	if rest, ok := strings.CutPrefix(line, "del "); ok {
		return writeLine(w, s.respondDel(cls, rest))
	}
	if rest, ok := strings.CutPrefix(line, "save "); ok {
		return writeLine(w, s.respondSave(cls, rest))
	}
	if rest, ok := strings.CutPrefix(line, "load "); ok {
		return writeLine(w, s.respondLoad(cls, rest))
	}
	return writeLine(w, s.respond(cls, line))
}

// writeLine writes one response line, reporting whether the connection is
// still usable.
func writeLine(w *bufio.Writer, resp string) bool {
	if _, err := w.WriteString(resp + "\n"); err != nil {
		return false
	}
	return w.Flush() == nil
}

// parseBatchHeader recognises "batch <n>" requests.
func parseBatchHeader(line string) (int, bool) {
	rest, ok := strings.CutPrefix(line, "batch ")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil {
		return 0, false
	}
	return n, true
}

// handleBatch reads n packet lines and answers each in order. It reports
// whether the connection is still usable. Lines that fail to parse yield
// "error ..." responses in their slot; the rest of the batch still runs.
func (s *Server) handleBatch(scanner *bufio.Scanner, w *bufio.Writer, cls Classifier, n int) bool {
	if n <= 0 || n > MaxBatch {
		return writeLine(w, fmt.Sprintf("error batch size must be in [1, %d]", MaxBatch))
	}
	s.batches.Add(1)
	// Batch buffers come from the engine's pools: handleBatch runs once per
	// "batch" request, and per-request make() calls dominate the serving
	// path's allocation profile. The pool clears recycled buffers before
	// handing them out, so a parse error that leaves a slot unwritten reads
	// as the zero packet / no-match, never as data from a previous batch.
	packets := engine.GetPacketBuf(n)
	defer engine.PutPacketBuf(packets)
	parseErrs := make([]error, n)
	for i := 0; i < n; i++ {
		if !scanner.Scan() {
			return false // connection dropped mid-batch
		}
		s.requests.Add(1)
		p, err := ParseRequest(strings.TrimSpace(scanner.Text()))
		if err != nil {
			s.parseFails.Add(1)
			parseErrs[i] = err
			continue
		}
		packets[i] = p
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
	for i := 0; i < n; i++ {
		var resp string
		switch {
		case parseErrs[i] != nil:
			resp = "error " + parseErrs[i].Error()
		case !out[i].OK:
			resp = "no-match"
		default:
			s.matches.Add(1)
			resp = fmt.Sprintf("match %d priority %d", out[i].Rule.ID, out[i].Rule.Priority)
		}
		if _, err := w.WriteString(resp + "\n"); err != nil {
			return false
		}
	}
	return w.Flush() == nil
}

// respondAdd handles "add <pos> @<rule>": parse the ClassBench rule line and
// insert it at priority position pos through the Updater interface.
func (s *Server) respondAdd(cls Classifier, rest string) string {
	s.requests.Add(1)
	s.updates.Add(1)
	up, ok := cls.(Updater)
	if !ok {
		return "error classifier does not support live updates"
	}
	posStr, ruleStr, found := strings.Cut(strings.TrimSpace(rest), " ")
	if !found {
		s.parseFails.Add(1)
		return "error expected: add <pos> @<rule>"
	}
	pos, err := strconv.Atoi(posStr)
	if err != nil {
		s.parseFails.Add(1)
		return "error position: " + err.Error()
	}
	r, err := rule.ParseClassBenchLine(strings.TrimSpace(ruleStr))
	if err != nil {
		s.parseFails.Add(1)
		return "error rule: " + err.Error()
	}
	res, err := up.Insert(pos, r)
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("ok id=%d version=%d rules=%d", res.ID, res.Version, res.Rules)
}

// respondDel handles "del <ruleID>".
func (s *Server) respondDel(cls Classifier, rest string) string {
	s.requests.Add(1)
	s.updates.Add(1)
	up, ok := cls.(Updater)
	if !ok {
		return "error classifier does not support live updates"
	}
	id, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil {
		s.parseFails.Add(1)
		return "error rule id: " + err.Error()
	}
	res, err := up.Delete(id)
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("ok version=%d rules=%d", res.Version, res.Rules)
}

// respondSave handles "save <path>": persist the served classifier as a
// compiled artifact through the ArtifactStore interface.
func (s *Server) respondSave(cls Classifier, rest string) string {
	s.requests.Add(1)
	s.artifactOps.Add(1)
	st, ok := cls.(ArtifactStore)
	if !ok {
		return "error classifier does not support artifacts"
	}
	path := strings.TrimSpace(rest)
	if path == "" {
		s.parseFails.Add(1)
		return "error expected: save <path>"
	}
	if err := st.SaveArtifact(path); err != nil {
		return "error " + err.Error()
	}
	return "ok saved " + path
}

// respondLoad handles "load <path>": hot-swap a compiled artifact in as the
// served classifier (an RCU snapshot swap; in-flight lookups finish against
// the old snapshot).
func (s *Server) respondLoad(cls Classifier, rest string) string {
	s.requests.Add(1)
	s.artifactOps.Add(1)
	st, ok := cls.(ArtifactStore)
	if !ok {
		return "error classifier does not support artifacts"
	}
	path := strings.TrimSpace(rest)
	if path == "" {
		s.parseFails.Add(1)
		return "error expected: load <path>"
	}
	res, err := st.LoadArtifact(path)
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("ok version=%d rules=%d", res.Version, res.Rules)
}

// respond processes one request line and returns the response line.
func (s *Server) respond(cls Classifier, line string) string {
	s.requests.Add(1)
	p, err := ParseRequest(line)
	if err != nil {
		s.parseFails.Add(1)
		return "error " + err.Error()
	}
	r, ok := cls.Classify(p)
	if !ok {
		return "no-match"
	}
	s.matches.Add(1)
	return fmt.Sprintf("match %d priority %d", r.ID, r.Priority)
}

// ParseRequest parses a request line into a packet key. IP fields accept
// dotted-quad or decimal notation.
func ParseRequest(line string) (rule.Packet, error) {
	fields := strings.Fields(line)
	if len(fields) != 5 {
		return rule.Packet{}, fmt.Errorf("expected 5 fields, got %d", len(fields))
	}
	src, err := parseIPField(fields[0])
	if err != nil {
		return rule.Packet{}, fmt.Errorf("src ip: %v", err)
	}
	dst, err := parseIPField(fields[1])
	if err != nil {
		return rule.Packet{}, fmt.Errorf("dst ip: %v", err)
	}
	sp, err := strconv.ParseUint(fields[2], 10, 16)
	if err != nil {
		return rule.Packet{}, fmt.Errorf("src port: %v", err)
	}
	dp, err := strconv.ParseUint(fields[3], 10, 16)
	if err != nil {
		return rule.Packet{}, fmt.Errorf("dst port: %v", err)
	}
	proto, err := strconv.ParseUint(fields[4], 10, 8)
	if err != nil {
		return rule.Packet{}, fmt.Errorf("proto: %v", err)
	}
	return rule.Packet{
		SrcIP: src, DstIP: dst,
		SrcPort: uint16(sp), DstPort: uint16(dp), Proto: uint8(proto),
	}, nil
}

func parseIPField(s string) (uint32, error) {
	if strings.Contains(s, ".") {
		return rule.ParseIPv4(s)
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, err
	}
	return uint32(v), nil
}

// Client is a minimal client for the server's protocol.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a classification server.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Classify sends one request and parses the response. It returns the rule ID
// and priority, or ok=false for a "no-match" response.
func (c *Client) Classify(p rule.Packet) (id, priority int, ok bool, err error) {
	req := fmt.Sprintf("%d %d %d %d %d\n", p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto)
	if _, err = c.w.WriteString(req); err != nil {
		return 0, 0, false, err
	}
	if err = c.w.Flush(); err != nil {
		return 0, 0, false, err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, 0, false, err
	}
	line = strings.TrimSpace(line)
	switch {
	case line == "no-match":
		return 0, 0, false, nil
	case strings.HasPrefix(line, "match "):
		if _, err := fmt.Sscanf(line, "match %d priority %d", &id, &priority); err != nil {
			return 0, 0, false, fmt.Errorf("server: malformed response %q", line)
		}
		return id, priority, true, nil
	default:
		return 0, 0, false, fmt.Errorf("server: %s", line)
	}
}

// ClassifyBatch sends "batch" requests for all packets and returns one
// Result per packet, in order. Batches larger than MaxBatch are split into
// multiple requests transparently (the server rejects oversized headers).
// A per-line server error (e.g. an unparsable packet) surfaces as OK=false
// for that slot only.
func (c *Client) ClassifyBatch(ps []rule.Packet) ([]engine.Result, error) {
	out := make([]engine.Result, 0, len(ps))
	for lo := 0; lo < len(ps); lo += MaxBatch {
		hi := lo + MaxBatch
		if hi > len(ps) {
			hi = len(ps)
		}
		chunk, err := c.classifyBatchChunk(ps[lo:hi])
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

func (c *Client) classifyBatchChunk(ps []rule.Packet) ([]engine.Result, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	fmt.Fprintf(c.w, "batch %d\n", len(ps))
	for _, p := range ps {
		fmt.Fprintf(c.w, "%d %d %d %d %d\n", p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto)
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := make([]engine.Result, len(ps))
	for i := range ps {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "match ") {
			var id, priority int
			if _, err := fmt.Sscanf(line, "match %d priority %d", &id, &priority); err != nil {
				return nil, fmt.Errorf("server: malformed response %q", line)
			}
			out[i] = engine.Result{Rule: rule.Rule{ID: id, Priority: priority}, OK: true}
		}
	}
	return out, nil
}

// AddRule inserts a ClassBench-format rule at priority position pos on the
// server and returns the assigned rule ID and new snapshot version.
func (c *Client) AddRule(pos int, classBenchLine string) (id int, version uint64, err error) {
	fmt.Fprintf(c.w, "add %d %s\n", pos, strings.TrimSpace(classBenchLine))
	if err := c.w.Flush(); err != nil {
		return 0, 0, err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, 0, err
	}
	line = strings.TrimSpace(line)
	var rules int
	if _, err := fmt.Sscanf(line, "ok id=%d version=%d rules=%d", &id, &version, &rules); err != nil {
		return 0, 0, fmt.Errorf("server: %s", line)
	}
	return id, version, nil
}

// SaveArtifact asks the server to persist its classifier as a compiled
// artifact at path (a path on the server's filesystem).
func (c *Client) SaveArtifact(path string) error {
	fmt.Fprintf(c.w, "save %s\n", strings.TrimSpace(path))
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "ok saved ") {
		return fmt.Errorf("server: %s", line)
	}
	return nil
}

// LoadArtifact asks the server to hot-swap the compiled artifact at path
// (on the server's filesystem) in as the served classifier, returning the
// new snapshot version and rule count.
func (c *Client) LoadArtifact(path string) (version uint64, rules int, err error) {
	fmt.Fprintf(c.w, "load %s\n", strings.TrimSpace(path))
	if err := c.w.Flush(); err != nil {
		return 0, 0, err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, 0, err
	}
	line = strings.TrimSpace(line)
	if _, err := fmt.Sscanf(line, "ok version=%d rules=%d", &version, &rules); err != nil {
		return 0, 0, fmt.Errorf("server: %s", line)
	}
	return version, rules, nil
}

// DeleteRule removes the rule with the given ID on the server and returns
// the new snapshot version.
func (c *Client) DeleteRule(id int) (version uint64, err error) {
	fmt.Fprintf(c.w, "del %d\n", id)
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, err
	}
	line = strings.TrimSpace(line)
	var rules int
	if _, err := fmt.Sscanf(line, "ok version=%d rules=%d", &version, &rules); err != nil {
		return 0, fmt.Errorf("server: %s", line)
	}
	return version, nil
}
