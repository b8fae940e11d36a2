// Command classifyd serves packet classifiers over TCP using the framed
// wire protocol of internal/server, or queries a running server. It serves
// named tables (engine.Tables), each an engine.Engine: without -tables the
// flags describe one table, "default". Any registered backend is available
// by name, each connection's batches run to completion on that connection's
// goroutine, and rules can be added and removed live: an update lands in a
// delta overlay (no rebuild on the update path), a compaction goroutine
// started by the triggering update folds the overlay into the base, and
// every generation is an RCU snapshot swap — readers are never blocked.
// Tables can be created from artifacts and dropped over the wire; a dropped
// table's engine closes at once.
//
// Serve a HiCuts tree built from a generated firewall classifier:
//
//	classifyd -family fw1 -size 1000 -algo hicuts -listen 127.0.0.1:9099
//
// Warm-start from a compiled classifier artifact instead of building — the
// first lookup is served straight from the loaded flat-array form, no
// backend build or train path runs:
//
//	classifyd -artifact policy.ncaf -listen 127.0.0.1:9099
//
// Serve with a durable update journal: every acknowledged update is
// journaled before it is published, so a kill-and-restart replays it:
//
//	classifyd -artifact policy.ncaf -journal auto -listen 127.0.0.1:9099
//
// Replay a real capture through the classifier — decode Ethernet/VLAN/IPv4
// frames into 5-tuples and classify them, at maximum rate or paced to the
// capture's recorded timing (see internal/iface):
//
//	classifyd -family acl1 -size 1000 -pcap trace.pcap
//	classifyd -artifact policy.ncaf -pcap trace.pcap -pcap-rate 1
//
// Classify live traffic from an interface (linux, CAP_NET_RAW), writing
// everything ingested to a pcap fixture for later replay:
//
//	classifyd -family acl1 -capture eth0 -pcap-out captured.pcap
//
// Serve the wire protocol to a co-located process over a shared-memory ring
// as well as TCP (the SDK side is classifier.WithSharedMemory):
//
//	classifyd -family acl1 -size 1000 -shm /run/classifyd.ring
//
// Query it (IPs may be dotted quads or decimal):
//
//	classifyd -query 127.0.0.1:9099 -packet "10.0.0.1 192.168.1.1 1234 80 6"
//
// Update it live (ClassBench rule format; pos 0 = top priority), or manage
// artifacts on the serving side:
//
//	classifyd -query 127.0.0.1:9099 -add "@10.0.0.0/8 0.0.0.0/0 0 : 65535 80 : 80 0x06/0xFF" -pos 0
//	classifyd -query 127.0.0.1:9099 -del 17
//	classifyd -query 127.0.0.1:9099 -save /var/lib/classifyd/policy.ncaf
//	classifyd -query 127.0.0.1:9099 -load /var/lib/classifyd/policy.ncaf
//
// Serve several independent rule sets — tables — from one daemon. Each
// table gets its own engine (backend, rules, journal); clients address any
// table by name, or the first (default) table when they name none. -shm
// serves every table over the ring as over TCP; the -pcap and -capture
// modes take the single table the flags describe:
//
//	classifyd -tables "acl=backend:hicuts,family:acl1,size:1000;fw=backend:cutsplit,family:fw2,size:500"
//	classifyd -query 127.0.0.1:9099 -list-tables
//	classifyd -query 127.0.0.1:9099 -table fw -packet "10.0.0.1 192.168.1.1 1234 80 6"
//
// On SIGINT/SIGTERM the server shuts down gracefully: in-flight (batch)
// requests are drained and answered before the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
	"neurocuts/internal/telemetry"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], sig, os.Stdout); err != nil {
		fatal(err)
	}
}

// onListen, when set (by tests), receives the bound listen address.
var onListen func(net.Addr)

// onAdminListen, when set (by tests), receives the bound admin address.
var onAdminListen func(net.Addr)

// onShmServer, when set (by tests), receives the server behind the -shm
// ring before the ring starts.
var onShmServer func(*server.Server)

// run is the daemon body, factored out of main so tests can drive it with
// their own signal channel and capture its output. It returns nil on a
// clean (drained) shutdown.
func run(args []string, sig <-chan os.Signal, stdout io.Writer) error {
	fs := flag.NewFlagSet("classifyd", flag.ExitOnError)
	var (
		rulesPath = fs.String("rules", "", "classifier file in ClassBench format")
		family    = fs.String("family", "acl1", "ClassBench family to generate when -rules is not given")
		size      = fs.Int("size", 1000, "classifier size when generating")
		seed      = fs.Int64("seed", 1, "random seed")
		algo      = fs.String("algo", "hicuts", "backend name (see internal/engine), or 'list'")
		timesteps = fs.Int("timesteps", 20000, "NeuroCuts training budget (neurocuts only)")
		binth     = fs.Int("binth", 16, "leaf threshold for tree backends")
		flowCache = fs.Int("flow-cache", 0, "flow cache entry budget of each table's engine, wire-created tables included (0 disables, at most 67108864)")
		artifact  = fs.String("artifact", "", "warm-start: serve this compiled classifier artifact instead of building")
		journal   = fs.String("journal", "", "durable update journal path (replayed at start; 'auto' co-locates with -artifact)")
		compactAt = fs.Int("compact-threshold", 0, "pending updates that trigger background compaction (0 = default, <0 disables)")
		tables    = fs.String("tables", "", "serve multiple named tables: \"name=key:val,...;name2=...\" (keys: backend, family, size, rules, artifact, journal, binth, seed; first table is the default)")
		pcapPath  = fs.String("pcap", "", "replay this pcap capture file through the classifier instead of serving")
		pcapRate  = fs.Float64("pcap-rate", 0, "replay pacing: 0 = maximum rate, r = r times the recorded speed (1 reproduces the capture's timing)")
		capture   = fs.String("capture", "", "classify live traffic captured from this network interface via AF_PACKET (linux, CAP_NET_RAW) instead of serving")
		pcapOut   = fs.String("pcap-out", "", "while replaying or capturing, also write every ingested packet to this pcap fixture")
		shmPath   = fs.String("shm", "", "additionally serve the wire protocol over a shared-memory ring at this file path")
		shmSlots  = fs.Int("shm-slots", 0, "shared-memory ring capacity per direction in 16-byte units, rounded up to a power of two (0 = default 4096: 64 KiB); a larger frame streams through")
		listen    = fs.String("listen", "127.0.0.1:9099", "address to serve on")
		adminAddr = fs.String("admin", "", "serve the HTTP admin plane (Prometheus /metrics, /healthz, /readyz, /tables, /debug/slow, /debug/pprof/) on this address")
		slowThr   = fs.Duration("slow-threshold", -1, "capture lookups at or above this latency into the slow-lookup flight recorder (/debug/slow; 0 captures everything, negative disables capture; latency histograms are recorded whenever -admin or this flag enables telemetry)")
		drain     = fs.Duration("drain-timeout", 5*time.Second, "max time to drain in-flight requests on shutdown")
		query     = fs.String("query", "", "query a running server at this address instead of serving")
		table     = fs.String("table", "", "table name to address with -query (empty = default table)")
		listTabs  = fs.Bool("list-tables", false, "list the server's tables (with -query)")
		packetStr = fs.String("packet", "", "packet to query: \"src dst sport dport proto\"")
		addRule   = fs.String("add", "", "ClassBench rule line to insert live (with -query)")
		pos       = fs.Int("pos", 0, "priority position for -add (0 = top)")
		delID     = fs.Int("del", -1, "rule ID to delete live (with -query)")
		savePath  = fs.String("save", "", "ask the server to save its classifier as an artifact at this path (with -query)")
		loadPath  = fs.String("load", "", "ask the server to hot-swap in the artifact at this path (with -query)")
	)
	fs.Parse(args)

	if strings.ToLower(*algo) == "list" {
		fmt.Fprintln(stdout, "registered backends:", strings.Join(engine.Backends(), ", "))
		return nil
	}

	if *query != "" {
		q := queryArgs{
			addr: *query, table: *table, listTables: *listTabs,
			packet: *packetStr, addRule: *addRule, pos: *pos, delID: *delID,
			savePath: *savePath, loadPath: *loadPath,
		}
		return runQuery(stdout, q)
	}

	// Online telemetry: armed whenever the admin plane (which renders the
	// histogram families) or the flight recorder (-slow-threshold >= 0) asks
	// for it. One shared instance serves every layer of the process.
	var tel *telemetry.Telemetry
	if *adminAddr != "" || *slowThr >= 0 {
		tel = telemetry.New()
		tel.SetSlowThreshold(slowThr.Nanoseconds())
	}

	if *pcapPath != "" && *capture != "" {
		return fmt.Errorf("-pcap and -capture are mutually exclusive (one ingestion source at a time)")
	}
	ingest := *pcapPath != "" || *capture != ""
	if *pcapOut != "" && !ingest {
		return fmt.Errorf("-pcap-out needs an ingestion source (-pcap or -capture)")
	}

	defaults := tableDefaults{
		binth: *binth, timesteps: *timesteps, seed: *seed,
		flowCache: *flowCache, compactAt: *compactAt, tel: tel,
	}
	var specs []tableSpec
	if *tables != "" {
		if ingest {
			return fmt.Errorf("-pcap and -capture apply to single-table mode only")
		}
		var err error
		if specs, err = parseTableSpecs(*tables); err != nil {
			return err
		}
	} else {
		// Without -tables the flags describe one table, "default".
		specs = []tableSpec{{name: "default", kv: map[string]string{
			"backend": *algo, "family": *family, "size": strconv.Itoa(*size),
			"rules": *rulesPath, "artifact": *artifact, "journal": *journal,
		}}}
	}

	if ingest {
		eng, err := buildTable(stdout, specs[0], defaults, nil)
		if err != nil {
			return err
		}
		defer eng.Close()
		src, label, err := openIngestSource(*pcapPath, *pcapRate, *capture)
		if err != nil {
			return err
		}
		return runIngest(stdout, src, label, eng, *pcapOut, sig)
	}
	return serve(stdout, specs, defaults, *listen, *adminAddr, *shmPath, *shmSlots, *drain, sig)
}

// queryArgs bundles the client-mode flags.
type queryArgs struct {
	addr       string
	table      string
	listTables bool
	packet     string
	addRule    string
	pos        int
	delID      int
	savePath   string
	loadPath   string
}

// runQuery connects to a running server and performs the one requested
// action.
func runQuery(stdout io.Writer, q queryArgs) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := server.DialV2(ctx, q.addr)
	if err != nil {
		return err
	}
	defer client.Close()
	if q.table != "" {
		id, err := client.ResolveTable(q.table)
		if err != nil {
			return err
		}
		client.UseTable(id)
	}
	switch {
	case q.listTables:
		tables, err := client.ListTables()
		if err != nil {
			return err
		}
		for _, t := range tables {
			def := ""
			if t.Default {
				def = " (default)"
			}
			fmt.Fprintf(stdout, "table %q id=%d%s\n", t.Name, t.ID, def)
		}
		return nil
	case q.addRule != "":
		// Rules travel in binary; parse the ClassBench line here.
		r, err := rule.ParseClassBenchLine(q.addRule)
		if err != nil {
			return err
		}
		id, version, err := client.AddRule(q.pos, r)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "added rule id=%d at position %d (version %d)\n", id, q.pos, version)
		return nil
	case q.delID >= 0:
		version, err := client.DeleteRule(q.delID)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "deleted rule id=%d (version %d)\n", q.delID, version)
		return nil
	case q.savePath != "":
		if err := client.SaveArtifact(q.savePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "server saved artifact to %s\n", q.savePath)
		return nil
	case q.loadPath != "":
		version, rules, err := client.LoadArtifact(q.loadPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "server loaded artifact %s (version %d, %d rules)\n", q.loadPath, version, rules)
		return nil
	case q.packet != "":
		key, err := rule.ParsePacket(q.packet)
		if err != nil {
			return err
		}
		id, priority, ok, err := client.Classify(key)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Fprintln(stdout, "no-match")
			return nil
		}
		fmt.Fprintf(stdout, "match rule id=%d priority=%d\n", id, priority)
		return nil
	default:
		return fmt.Errorf("-query needs one of -packet, -add, -del, -save, -load or -list-tables")
	}
}

// openIngestSource builds the selected packet source: a pcap replay or an
// AF_PACKET live capture.
func openIngestSource(pcapPath string, rate float64, capture string) (iface.Source, string, error) {
	if pcapPath != "" {
		src, err := iface.OpenPcap(pcapPath, iface.PcapConfig{Rate: rate})
		if err != nil {
			return nil, "", err
		}
		return src, fmt.Sprintf("replay of %s", pcapPath), nil
	}
	src, err := iface.OpenAFPacket(capture)
	if err != nil {
		return nil, "", err
	}
	return src, fmt.Sprintf("live capture on %s", capture), nil
}

// ingestBatch is the span size of one ReadBatch/ClassifyBatch round in
// ingestion mode.
const ingestBatch = 512

// createFixture opens the -pcap-out file; tests substitute one whose
// write-back fails.
var createFixture = func(path string) (io.WriteCloser, error) { return os.Create(path) }

// runIngest pumps packets from src through the engine until the source is
// exhausted (pcap EOF) or a signal arrives (live capture, or an interrupted
// replay), optionally mirroring every ingested packet into a pcap fixture.
// The fixture counts as written only once its flush and close succeed.
func runIngest(stdout io.Writer, src iface.Source, label string, eng *engine.Engine, pcapOut string, sig <-chan os.Signal) error {
	defer src.Close()

	var f io.WriteCloser
	var pw *iface.PcapWriter
	if pcapOut != "" {
		var err error
		if f, err = createFixture(pcapOut); err != nil {
			return err
		}
		defer f.Close() // error paths; the write-back below closes it first
		pw, err = iface.NewPcapWriter(f)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "classifyd: classifying %s\n", label)
	ps := make([]rule.Packet, ingestBatch)
	out := make([]engine.Result, ingestBatch)
	var total, matches uint64
	outTS := uint64(time.Second)
	start := time.Now()
loop:
	for {
		select {
		case <-sig:
			fmt.Fprintln(stdout, "classifyd: signal received, stopping ingestion")
			break loop
		default:
		}
		n, err := src.ReadBatch(ps)
		if n > 0 {
			eng.ClassifyBatch(ps[:n], out[:n])
			for i := 0; i < n; i++ {
				if out[i].OK {
					matches++
				}
			}
			if pw != nil {
				for i := 0; i < n; i++ {
					if werr := pw.WritePacket(outTS, ps[i]); werr != nil {
						return werr
					}
					outTS += uint64(iface.TraceInterval)
				}
			}
			total += uint64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	if pw != nil {
		if err := errors.Join(pw.Flush(), f.Close()); err != nil {
			return fmt.Errorf("write %s: %w", pcapOut, err)
		}
		fmt.Fprintf(stdout, "classifyd: wrote %d packets to %s\n", total, pcapOut)
	}
	var skipped uint64
	if st, ok := src.(interface{ Stats() iface.SourceStats }); ok {
		skipped = st.Stats().Skipped
	}
	rate := float64(total) / elapsed.Seconds()
	fmt.Fprintf(stdout, "classifyd: ingested %d packets (%d matches, %d skipped frames) in %v (%.0f pkt/s)\n",
		total, matches, skipped, elapsed.Round(time.Millisecond), rate)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "classifyd:", err)
	os.Exit(1)
}
