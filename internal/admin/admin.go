// Package admin is the daemon's HTTP management plane: Prometheus-format
// metrics, health and readiness probes, a JSON table listing and the
// standard pprof profiling endpoints, all served by the stdlib HTTP stack
// (no external dependencies).
//
// The wire protocols of internal/server exist to classify packets; this
// package exists to run the process that does. classifyd's rich internal
// telemetry — engine lookup/update counters, flow-cache effectiveness, the
// online-update subsystem's overlay/compaction/journal state, the wire
// server's request counters — was previously reachable only through the
// bespoke binary "stats" op, which no scrape-based monitoring stack speaks.
// Hanging a plain HTTP admin listener off the daemon (the way ndn-dpdk
// hangs its management plane off its service daemon) makes the system
// observable with the tools operators already run:
//
//	GET /metrics        Prometheus text exposition (see metrics.go)
//	GET /healthz        liveness: 200 once the process serves HTTP
//	GET /readyz         readiness: 200 while a default table is serving
//	GET /tables         JSON table listing (mirrors the v2 list-tables op)
//	GET /debug/slow     slow-lookup flight recorder dump (JSON, worst-first)
//	GET /debug/pprof/*  CPU/heap/goroutine/... profiles (net/http/pprof)
//
// Every table-facing endpoint reads the one engine.Tables New is given: a
// daemon's table map, or the SDK's one engine as a one-table manager.
//
// When a telemetry instance is attached (Options.Telemetry), /metrics
// additionally exposes native Prometheus histogram families — lookup,
// update and server-request latency — rendered from the lock-free striped
// histograms, and /debug/slow dumps the flight recorder.
//
// The admin listener is separate from the classification listener on
// purpose: it binds its own (typically loopback or cluster-internal)
// address, and shutting the daemon down stops it before the classification
// server drains, so a scrape can never observe a half-shut-down process as
// healthy.
package admin

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/server"
	"neurocuts/internal/telemetry"
)

// Options selects the admin server's optional data sources.
type Options struct {
	// Server, when non-nil, contributes the wire server's request counters.
	Server *server.Server
	// Telemetry, when non-nil, contributes the latency histogram families
	// to /metrics and backs the /debug/slow flight-recorder dump.
	Telemetry *telemetry.Telemetry
	// Ready overrides the readiness check: /readyz returns 200 exactly when
	// it returns nil. The default reports ready while a default table is
	// present.
	Ready func() error
}

// Server is the HTTP admin plane. Construct with New, then either Listen
// (own listener + background serve loop, shut down with Shutdown) or embed
// Handler into an existing HTTP server.
type Server struct {
	// The sources are fixed at New.
	tables *engine.Tables
	wire   *server.Server
	tel    *telemetry.Telemetry
	ready  func() error
	start  time.Time

	mu      sync.Mutex // guards httpSrv
	httpSrv *http.Server
}

// New builds an admin server over tables, which supply the per-table engine
// metrics, the /tables listing and the default readiness check, and the
// optional sources in opts. A daemon passes the tables it serves, the
// embedded SDK its one engine as engine.SingleTable; an empty manager leaves
// the process-level metrics and pprof, and /readyz answers 503.
func New(tables *engine.Tables, opts Options) *Server {
	return &Server{
		tables: tables,
		wire:   opts.Server,
		tel:    opts.Telemetry,
		ready:  opts.Ready,
		start:  time.Now(),
	}
}

// Handler returns the admin plane's route mux. It is safe to serve from any
// HTTP server; Listen is a convenience around it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/tables", s.handleTables)
	mux.HandleFunc("/debug/slow", s.handleSlow)
	// pprof is wired explicitly instead of importing the package for its
	// DefaultServeMux side effect: the admin mux is the only place these
	// handlers exist, so a daemon that does not enable -admin exposes no
	// profiling surface at all.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Listen starts serving the admin plane on addr (e.g. "127.0.0.1:9100")
// and returns the bound address. The serve loop runs in a background
// goroutine until Shutdown.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	hs := &http.Server{
		Handler: s.Handler(),
		// An admin request is a scrape or a probe: small request, bounded
		// response. The exceptions are the pprof profile/trace endpoints,
		// whose responses stream for a caller-chosen number of seconds, so
		// only the request-reading side gets a deadline.
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.mu.Lock()
	s.httpSrv = hs
	s.mu.Unlock()
	go hs.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown gracefully stops the admin listener: in-flight scrapes finish,
// new connections are refused. Call it before draining the classification
// server so monitoring never sees a half-shut-down daemon as live.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.httpSrv
	s.httpSrv = nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	err := hs.Shutdown(ctx)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// tableStat is one table's snapshot, shared by /metrics and /tables.
type tableStat struct {
	Name    string `json:"name"`
	ID      uint32 `json:"id"`
	Default bool   `json:"default"`
	Backend string `json:"backend"`
	Rules   int    `json:"rules"`
	Version uint64 `json:"version"`

	stats engine.EngineStats
}

// snapshot captures everything one scrape renders, taken at one instant so
// /metrics is internally consistent per table.
type snapshot struct {
	tables []tableStat
	// srv is the wire server's counters (nil when no server is attached).
	srv *server.Stats
	// hists is the telemetry histogram families (nil when no telemetry is
	// attached).
	hists []telemetry.FamilySnapshot
	// start is the process-start (admin-construction) time.
	start time.Time
}

// snapshot collects the current state of every source.
func (s *Server) snapshot() snapshot {
	snap := snapshot{start: s.start}
	def, _ := s.tables.Default()
	for _, tab := range s.tables.List() {
		st := tab.Engine.Stats()
		snap.tables = append(snap.tables, tableStat{
			Name:    tab.Name,
			ID:      tab.ID,
			Default: def != nil && def.ID == tab.ID,
			Backend: st.Backend,
			Rules:   st.Rules,
			Version: st.Version,
			stats:   st,
		})
	}
	if s.wire != nil {
		st := s.wire.Stats()
		snap.srv = &st
	}
	snap.hists = s.tel.Families() // nil-safe: nil telemetry yields nil
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(renderMetrics(s.snapshot()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyErr reports why the daemon is not ready, or nil.
func (s *Server) readyErr() error {
	if s.ready != nil {
		return s.ready()
	}
	if _, ok := s.tables.Default(); !ok {
		return errors.New("no default table")
	}
	return nil
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.readyErr(); err != nil {
		http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// slowDump is the /debug/slow response shape.
type slowDump struct {
	// ThresholdNanos is the current capture threshold (negative: recorder
	// disabled).
	ThresholdNanos int64 `json:"threshold_nanos"`
	// Entries are the captured slow lookups, worst-first.
	Entries []telemetry.SlowEntry `json:"entries"`
}

// handleSlow dumps the slow-lookup flight recorder as JSON, worst-first.
// With no telemetry attached it serves an empty dump with threshold -1, so
// probers need not special-case a daemon running without -slow-threshold.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	tel := s.tel
	dump := slowDump{ThresholdNanos: tel.SlowThresholdNanos()}
	dump.Entries = tel.SlowEntries() // nil-safe
	if dump.Entries == nil {
		dump.Entries = []telemetry.SlowEntry{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(dump)
}

// handleTables serves the JSON table listing, mirroring the v2 protocol's
// list-tables op (same identities, same default flag) with the engine
// summary fields a human debugging a daemon wants next to them.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	if snap.tables == nil {
		snap.tables = []tableStat{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap.tables)
}
