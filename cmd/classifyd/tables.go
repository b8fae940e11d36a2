package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"neurocuts/internal/admin"
	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/internal/server"
	"neurocuts/internal/telemetry"
)

// tableDefaults carries the daemon-level engine flags. Every engine the
// daemon starts — each table the flags or -tables describe, and each table
// created over the wire — takes its options from options(), with per-table
// overrides on top.
type tableDefaults struct {
	binth     int
	timesteps int
	seed      int64
	// flowCache is the flow-cache entry budget of each engine, wire-created
	// tables included.
	flowCache int
	compactAt int
	// tel is the process-wide telemetry instance (nil when telemetry is
	// off). Every table's engine records into it, each under its own table
	// label in the flight recorder.
	tel *telemetry.Telemetry
}

// options returns the engine options the daemon's flags describe. It sets
// no journal and no telemetry table label: those are per engine.
func (d tableDefaults) options() engine.Options {
	return engine.Options{
		Binth:            d.binth,
		Timesteps:        d.timesteps,
		Seed:             d.seed,
		FlowCacheEntries: d.flowCache,
		CompactThreshold: d.compactAt,
		Telemetry:        d.tel,
	}
}

// tableSpec is one parsed table description from the -tables flag.
type tableSpec struct {
	name string
	kv   map[string]string
}

// parseTableSpecs parses the -tables flag:
//
//	name=key:val,key:val;name2=key:val,...
//
// Tables are separated by ';', settings within a table by ',', and each
// setting is key:val. Keys: backend, family, size, rules (path), artifact,
// journal ('auto' co-locates with the table's artifact), binth, seed. The
// first table becomes the default (the target of frames addressed to table
// 0).
func parseTableSpecs(spec string) ([]tableSpec, error) {
	var specs []tableSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, settings, found := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !found || name == "" {
			return nil, fmt.Errorf("table spec %q: want name=key:val,...", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("table %q specified twice", name)
		}
		seen[name] = true
		kv := map[string]string{}
		for _, setting := range strings.Split(settings, ",") {
			setting = strings.TrimSpace(setting)
			if setting == "" {
				continue
			}
			key, val, found := strings.Cut(setting, ":")
			if !found {
				return nil, fmt.Errorf("table %q: setting %q: want key:val", name, setting)
			}
			key = strings.ToLower(strings.TrimSpace(key))
			switch key {
			case "backend", "family", "size", "rules", "artifact", "journal", "binth", "seed":
			default:
				return nil, fmt.Errorf("table %q: unknown setting %q", name, key)
			}
			kv[key] = strings.TrimSpace(val)
		}
		specs = append(specs, tableSpec{name: name, kv: kv})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-tables %q describes no tables", spec)
	}
	return specs, nil
}

// specInt reads an integer setting with a default.
func specInt(kv map[string]string, key string, def int) (int, error) {
	s, ok := kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("setting %s: %v", key, err)
	}
	return n, nil
}

// buildTableEngine builds one table's engine from its spec. tabs, when not
// nil, holds the tables already serving: a spec naming a journal one of them
// appends to is refused before its engine opens the file.
func buildTableEngine(spec tableSpec, d tableDefaults, tabs *engine.Tables) (*engine.Engine, error) {
	kv := spec.kv
	binth, err := specInt(kv, "binth", d.binth)
	if err != nil {
		return nil, err
	}
	size, err := specInt(kv, "size", 1000)
	if err != nil {
		return nil, err
	}
	seed := d.seed
	if s, ok := kv["seed"]; ok {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("setting seed: %v", err)
		}
		seed = v
	}
	journalPath := kv["journal"]
	if journalPath == "auto" {
		if kv["artifact"] == "" {
			return nil, fmt.Errorf("journal:auto needs artifact: to co-locate with")
		}
		journalPath = engine.JournalPathFor(kv["artifact"])
	}
	if tabs != nil {
		if err := tabs.CheckJournalFree(journalPath); err != nil {
			return nil, err
		}
	}
	opts := d.options()
	opts.Binth, opts.Seed = binth, seed
	opts.JournalPath, opts.TelemetryTable = journalPath, spec.name
	if artifact := kv["artifact"]; artifact != "" {
		return engine.NewEngineFromArtifact(artifact, opts)
	}
	set, err := classbench.Load(kv["rules"], kv["family"], size, seed)
	if err != nil {
		return nil, err
	}
	backend := kv["backend"]
	if backend == "" {
		backend = "hicuts"
	}
	return engine.NewEngine(strings.ToLower(backend), set, opts)
}

// buildTable builds one table's engine and reports how it started: a warm
// start from an artifact, a replayed journal.
func buildTable(stdout io.Writer, spec tableSpec, d tableDefaults, tabs *engine.Tables) (*engine.Engine, error) {
	eng, err := buildTableEngine(spec, d, tabs)
	if err != nil {
		return nil, fmt.Errorf("table %q: %w", spec.name, err)
	}
	if artifact := spec.kv["artifact"]; artifact != "" {
		fmt.Fprintf(stdout, "classifyd: table %q: warm start from %s (%s, %d rules) — no build/train path invoked\n",
			spec.name, artifact, engine.DisplayName(eng.Backend()), eng.Len())
	}
	if st := eng.UpdaterStats(); st.JournalPath != "" {
		fmt.Fprintf(stdout, "classifyd: table %q: journal %s, %d records replayed, serving %d rules\n",
			spec.name, st.JournalPath, st.JournalRecords, st.Rules)
	}
	return eng, nil
}

// serve builds the tables, serves them over TCP (and, with shmPath, over a
// shared-memory ring too) until a signal arrives, then drains and closes
// every engine.
func serve(stdout io.Writer, specs []tableSpec, d tableDefaults, listen, adminAddr, shmPath string, shmSlots int, drain time.Duration, sig <-chan os.Signal) error {
	tabs := engine.NewTables()
	defer tabs.CloseAll()
	for _, s := range specs {
		eng, err := buildTable(stdout, s, d, tabs)
		if err != nil {
			return err
		}
		tab, err := tabs.Create(s.name, eng)
		if err != nil {
			eng.Close()
			return err
		}
		fmt.Fprintf(stdout, "classifyd: table %q (id %d): %s engine, %d rules\n",
			tab.Name, tab.ID, engine.DisplayName(eng.Backend()), eng.Len())
	}
	def, _ := tabs.Default()

	var ring *iface.ShmServer
	if shmPath != "" {
		// The ring's own server serves tabs, so a table created over the
		// ring is listed over TCP, has its journal checked against every
		// table's, and closes with the rest at shutdown.
		ringSrv := server.NewTables(tabs)
		ringSrv.TableCreateOptions = d.options()
		if onShmServer != nil {
			onShmServer(ringSrv)
		}
		var err error
		if ring, err = iface.NewShmServerOn(shmPath, ringSrv, iface.ShmServerConfig{Slots: shmSlots}); err != nil {
			return err
		}
		defer ring.Close()
		fmt.Fprintf(stdout, "classifyd: shared-memory ring on %s (%d slots)\n", ring.Path(), ring.Slots())
	}
	srv := server.NewTables(tabs)
	srv.Telemetry = d.tel
	// Tables created live over the wire share the process telemetry; the
	// server labels each one's flight-recorder entries with its own name.
	srv.TableCreateOptions = d.options()
	addr, err := srv.Listen(listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "classifyd: serving %d tables on %s (default table %q)\n", tabs.Len(), addr, def.Name)
	// The admin plane (-admin) binds once the classification listener
	// serves, and stops before it drains, so a scrape can never observe a
	// half-started or half-shut-down daemon as healthy.
	adm := admin.New(tabs, admin.Options{Server: srv, Telemetry: d.tel})
	if adminAddr != "" {
		bound, err := adm.Listen(adminAddr)
		if err != nil {
			srv.Shutdown(context.Background())
			return err
		}
		fmt.Fprintf(stdout, "classifyd: admin plane on http://%s (/metrics /healthz /readyz /tables /debug/slow /debug/pprof/)\n", bound)
		if onAdminListen != nil {
			onAdminListen(bound)
		}
	}
	if onListen != nil {
		onListen(addr)
	}

	<-sig
	fmt.Fprintln(stdout, "classifyd: shutting down, draining in-flight requests")
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	adm.Shutdown(ctx)
	if ring != nil {
		if st := ring.Stats(); st.Packets > 0 {
			fmt.Fprintf(stdout, "classifyd: shared-memory ring served %d packets in %d batches\n", st.Packets, st.Batches)
		}
		ring.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		// A missed drain deadline force-closed stragglers; the daemon still
		// exits cleanly, but say what happened.
		fmt.Fprintf(stdout, "classifyd: drain timeout expired, closed remaining connections (%v)\n", err)
	}
	st := srv.Stats()
	fmt.Fprintf(stdout, "classifyd: served %d requests (%d matches, %d parse failures) across %d tables, default table final rule-set version %d\n",
		st.Requests, st.Matches, st.ParseFails, tabs.Len(), def.Engine.Version())
	return nil
}
