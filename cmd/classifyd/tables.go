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
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
	"neurocuts/internal/telemetry"
)

// tableDefaults carries the daemon-level flags a table spec can override.
type tableDefaults struct {
	binth     int
	timesteps int
	seed      int64
	shards    int
	// flowCache is the flow-cache entry budget of each table's engine,
	// wire-created tables included.
	flowCache int
	compactAt int
	// tel is the process-wide telemetry instance (nil when telemetry is
	// off). Every table's engine records into it, each under its own table
	// label in the flight recorder.
	tel *telemetry.Telemetry
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

// buildTableEngine builds one table's engine from its spec.
func buildTableEngine(spec tableSpec, d tableDefaults) (*engine.Engine, error) {
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
	opts := engine.Options{
		Binth:            binth,
		Timesteps:        d.timesteps,
		Seed:             seed,
		Shards:           d.shards,
		FlowCacheEntries: d.flowCache,
		JournalPath:      journalPath,
		CompactThreshold: d.compactAt,
		Telemetry:        d.tel,
		TelemetryTable:   spec.name,
	}
	if artifact := kv["artifact"]; artifact != "" {
		return engine.NewEngineFromArtifact(artifact, opts)
	}
	var set *rule.Set
	if path := kv["rules"]; path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		set, err = rule.ParseClassBench(f)
		if err != nil {
			return nil, err
		}
	} else {
		family := kv["family"]
		if family == "" {
			family = "acl1"
		}
		fam, err := classbench.FamilyByName(family)
		if err != nil {
			return nil, err
		}
		set = classbench.Generate(fam, size, seed)
	}
	backend := kv["backend"]
	if backend == "" {
		backend = "hicuts"
	}
	return engine.NewEngine(strings.ToLower(backend), set, opts)
}

// runTables serves a multi-table daemon described by the -tables flag and
// blocks until a signal arrives, then drains and closes every engine.
func runTables(stdout io.Writer, spec string, d tableDefaults, listen, adminAddr string, drain time.Duration, sig <-chan os.Signal) error {
	specs, err := parseTableSpecs(spec)
	if err != nil {
		return err
	}
	tabs := engine.NewTables()
	defer tabs.CloseAll()
	for _, s := range specs {
		eng, err := buildTableEngine(s, d)
		if err != nil {
			return fmt.Errorf("table %q: %w", s.name, err)
		}
		tab, err := tabs.Create(s.name, eng)
		if err != nil {
			eng.Close()
			return err
		}
		fmt.Fprintf(stdout, "classifyd: table %q (id %d): %s engine, %d rules\n",
			tab.Name, tab.ID, engine.DisplayName(eng.Backend()), eng.Rules().Len())
	}

	srv := server.NewTables(tabs)
	srv.Telemetry = d.tel
	// Tables created live over the wire share the process telemetry;
	// their flight-recorder entries carry the instance's default table label.
	srv.TableCreateOptions = engine.Options{
		Binth: d.binth, Seed: d.seed, Shards: d.shards, FlowCacheEntries: d.flowCache,
		CompactThreshold: d.compactAt, Telemetry: d.tel,
	}
	addr, err := srv.Listen(listen)
	if err != nil {
		return err
	}
	def, _ := tabs.Default()
	fmt.Fprintf(stdout, "classifyd: serving %d tables on %s (default table %q)\n",
		tabs.Len(), addr, def.Name)
	stopAdmin, err := startAdmin(stdout, adminAddr, admin.Options{Tables: tabs, Server: srv, Telemetry: d.tel})
	if err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	if onListen != nil {
		onListen(addr)
	}

	<-sig
	fmt.Fprintln(stdout, "classifyd: shutting down, draining in-flight requests")
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Admin first, for the same scrape-consistency reason as the
	// single-engine path.
	stopAdmin(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stdout, "classifyd: drain timeout expired, closed remaining connections (%v)\n", err)
	}
	st := srv.Stats()
	fmt.Fprintf(stdout, "classifyd: served %d requests (%d matches, %d parse failures) across %d tables\n",
		st.Requests, st.Matches, st.ParseFails, tabs.Len())
	return nil
}
