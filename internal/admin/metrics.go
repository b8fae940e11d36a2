package admin

// Prometheus text-exposition rendering (format version 0.0.4), written by
// hand against the stdlib so the daemon takes no client-library dependency.
// The rules the renderer upholds — and promlint.go enforces in tests and CI:
//
//   - every family is announced by # HELP and # TYPE before its first
//     sample, exactly once, and all of a family's samples are consecutive;
//   - label values are escaped (backslash, double-quote, newline);
//   - no two samples share a (name, label set).
//
// Metric names follow the conventions scrapers expect: counters end in
// _total, sizes in _bytes, timestamps in _seconds. Per-table samples carry
// a table="<name>" label so one daemon serving many rule sets exports one
// well-formed family per measure, not one family per table.

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"strings"

	"neurocuts/internal/dataplane"
	"neurocuts/internal/telemetry"
)

// label is one name="value" pair.
type label struct{ k, v string }

// promWriter accumulates one exposition document.
type promWriter struct {
	b bytes.Buffer
}

// family announces a metric family. Call exactly once per family, before
// its samples.
func (p *promWriter) family(name, typ, help string) {
	p.b.WriteString("# HELP ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(help)
	p.b.WriteByte('\n')
	p.b.WriteString("# TYPE ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(typ)
	p.b.WriteByte('\n')
}

// escapeLabelValue applies the exposition format's label escaping.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// sample emits one sample line.
func (p *promWriter) sample(name string, labels []label, v float64) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				p.b.WriteByte(',')
			}
			p.b.WriteString(l.k)
			p.b.WriteString(`="`)
			p.b.WriteString(escapeLabelValue(l.v))
			p.b.WriteString(`"`)
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.b.WriteByte('\n')
}

// perTableMetric describes one per-table family rendered from EngineStats.
type perTableMetric struct {
	name  string
	typ   string
	help  string
	value func(t tableStat) float64
}

// perTableMetrics is the fixed catalogue of per-table families. Order is
// the exposition order.
var perTableMetrics = []perTableMetric{
	{"neurocuts_engine_rules", "gauge", "Live (merged) rules served by the table.",
		func(t tableStat) float64 { return float64(t.stats.Rules) }},
	{"neurocuts_engine_snapshot_version", "gauge", "RCU snapshot generation counter (one per update, compaction or artifact load).",
		func(t tableStat) float64 { return float64(t.stats.Version) }},
	{"neurocuts_engine_lookups_total", "counter", "Packets classified (single lookups plus every packet of every batch).",
		func(t tableStat) float64 { return float64(t.stats.Lookups) }},
	{"neurocuts_engine_batches_total", "counter", "Sharded batch-classify calls served.",
		func(t tableStat) float64 { return float64(t.stats.Batches) }},
	{"neurocuts_engine_updates_total", "counter", "Successful rule inserts and deletes.",
		func(t tableStat) float64 { return float64(t.stats.Updates) }},
	{"neurocuts_engine_update_failures_total", "counter", "Failed rule inserts and deletes.",
		func(t tableStat) float64 { return float64(t.stats.UpdateFailures) }},
	{"neurocuts_flowcache_hits_total", "counter", "Flow-cache hits (zero when the cache is disabled).",
		func(t tableStat) float64 { return float64(t.stats.CacheHits) }},
	{"neurocuts_flowcache_misses_total", "counter", "Flow-cache misses (zero when the cache is disabled).",
		func(t tableStat) float64 { return float64(t.stats.CacheMisses) }},
	{"neurocuts_updater_overlay_rules", "gauge", "Pending inserted rules in the delta overlay.",
		func(t tableStat) float64 { return float64(t.stats.Updater.OverlayRules) }},
	{"neurocuts_updater_tombstones", "gauge", "Deleted-but-not-yet-compacted base rules.",
		func(t tableStat) float64 { return float64(t.stats.Updater.Tombstones) }},
	{"neurocuts_updater_compact_threshold", "gauge", "Pending-update count that triggers background compaction (<= 0 disabled).",
		func(t tableStat) float64 { return float64(t.stats.Updater.CompactThreshold) }},
	{"neurocuts_updater_compactions_total", "counter", "Completed base rebuilds (the base generation).",
		func(t tableStat) float64 { return float64(t.stats.Updater.Compactions) }},
	{"neurocuts_updater_compact_failures_total", "counter", "Failed background compactions.",
		func(t tableStat) float64 { return float64(t.stats.Updater.CompactFailures) }},
	{"neurocuts_updater_compacting", "gauge", "1 while a background compaction is in flight.",
		func(t tableStat) float64 { return boolGauge(t.stats.Updater.Compacting) }},
	{"neurocuts_updater_last_compact_seconds", "gauge", "Wall-clock cost of the latest compaction.",
		func(t tableStat) float64 { return float64(t.stats.Updater.LastCompactNanos) / 1e9 }},
	{"neurocuts_updater_journal_records", "gauge", "Records in the durable update journal (0 when journaling is disabled).",
		func(t tableStat) float64 { return float64(t.stats.Updater.JournalRecords) }},
	{"neurocuts_updater_journal_bytes", "gauge", "Durable length of the update journal file.",
		func(t tableStat) float64 { return float64(t.stats.Updater.JournalBytes) }},
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// renderMetrics renders one snapshot as a Prometheus exposition document.
func renderMetrics(snap snapshot) []byte {
	var p promWriter

	p.family("neurocuts_up", "gauge", "1 while the admin plane is serving.")
	p.sample("neurocuts_up", nil, 1)
	p.family("neurocuts_process_start_time_seconds", "gauge", "Unix time the admin plane was constructed.")
	p.sample("neurocuts_process_start_time_seconds", nil, float64(snap.start.UnixNano())/1e9)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.family("go_goroutines", "gauge", "Number of goroutines.")
	p.sample("go_goroutines", nil, float64(runtime.NumGoroutine()))
	p.family("go_memstats_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	p.sample("go_memstats_heap_alloc_bytes", nil, float64(ms.HeapAlloc))

	p.family("neurocuts_tables", "gauge", "Live classification tables.")
	p.sample("neurocuts_tables", nil, float64(len(snap.tables)))
	if snap.retired >= 0 {
		p.family("neurocuts_tables_retired", "gauge", "Displaced engines awaiting the reaper's grace.")
		p.sample("neurocuts_tables_retired", nil, float64(snap.retired))
	}

	for _, m := range perTableMetrics {
		if len(snap.tables) == 0 {
			break
		}
		p.family(m.name, m.typ, m.help)
		for _, t := range snap.tables {
			p.sample(m.name, []label{{"table", t.Name}}, m.value(t))
		}
	}
	// The latest compaction failure, as an info-style gauge: the error text
	// travels in a label (sample value is always 1), present only while the
	// most recent compaction attempt failed.
	var failed []tableStat
	for _, t := range snap.tables {
		if t.stats.Updater.LastCompactError != "" {
			failed = append(failed, t)
		}
	}
	if len(failed) > 0 {
		p.family("neurocuts_updater_last_compact_error_info", "gauge",
			"Most recent background-compaction failure (error text in the label; absent after a success).")
		for _, t := range failed {
			p.sample("neurocuts_updater_last_compact_error_info",
				[]label{{"table", t.Name}, {"error", t.stats.Updater.LastCompactError}}, 1)
		}
	}

	renderHistograms(&p, snap.hists)
	if snap.dp != nil {
		renderDataplane(&p, snap.dp)
	}

	if s := snap.srv; s != nil {
		p.family("neurocuts_server_requests_total", "counter", "Classification and admin requests, counting each batched packet.")
		p.sample("neurocuts_server_requests_total", nil, float64(s.Requests))
		p.family("neurocuts_server_matches_total", "counter", "Lookups that matched a rule.")
		p.sample("neurocuts_server_matches_total", nil, float64(s.Matches))
		p.family("neurocuts_server_parse_failures_total", "counter", "Requests rejected as unparsable.")
		p.sample("neurocuts_server_parse_failures_total", nil, float64(s.ParseFails))
		p.family("neurocuts_server_batch_requests_total", "counter", "Batch requests served.")
		p.sample("neurocuts_server_batch_requests_total", nil, float64(s.Batches))
		p.family("neurocuts_server_update_requests_total", "counter", "Live rule-update requests (add/del, insert/delete).")
		p.sample("neurocuts_server_update_requests_total", nil, float64(s.Updates))
		p.family("neurocuts_server_artifact_requests_total", "counter", "Artifact save/load admin requests.")
		p.sample("neurocuts_server_artifact_requests_total", nil, float64(s.ArtifactOps))
		p.family("neurocuts_server_table_requests_total", "counter", "Table admin requests (list/create/drop).")
		p.sample("neurocuts_server_table_requests_total", nil, float64(s.TableOps))
		p.family("neurocuts_server_active_connections", "gauge", "Currently connected classification clients.")
		p.sample("neurocuts_server_active_connections", nil, float64(s.ActiveConns))
	}

	return p.b.Bytes()
}

// leLabel formats bucket b's inclusive upper bound as a Prometheus `le`
// label value in seconds ("+Inf" for the overflow bucket).
func leLabel(b int) string {
	upper := telemetry.BucketUpperNanos(b)
	if math.IsInf(upper, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(upper/1e9, 'g', -1, 64)
}

// renderHistograms renders the telemetry families as native Prometheus
// histograms: per series, cumulative _bucket samples under strictly
// increasing `le` bounds ending in "+Inf", then the derived _sum (bucket
// midpoints, seconds) and _count. The scrape merges each histogram's
// stripes into one snapshot, so one family line per serving path comes out
// regardless of stripe count.
func renderHistograms(p *promWriter, fams []telemetry.FamilySnapshot) {
	for _, f := range fams {
		p.family(f.Name, "histogram", f.Help)
		for _, s := range f.Series {
			base := make([]label, 0, len(s.Labels)+1)
			for _, l := range s.Labels {
				base = append(base, label{l.Name, l.Value})
			}
			var cum uint64
			for b := 0; b < telemetry.NumBuckets; b++ {
				cum += s.Hist.Counts[b]
				p.sample(f.Name+"_bucket", append(base, label{"le", leLabel(b)}), float64(cum))
			}
			p.sample(f.Name+"_sum", base, s.Hist.SumNanos()/1e9)
			p.sample(f.Name+"_count", base, float64(cum))
		}
	}
}

// perCoreMetric describes one per-core family rendered from the dataplane's
// CoreStats.
type perCoreMetric struct {
	name  string
	typ   string
	help  string
	value func(cs dataplane.CoreStats) float64
}

// perCoreMetrics is the fixed catalogue of per-core dataplane families.
var perCoreMetrics = []perCoreMetric{
	{"neurocuts_dataplane_ring_depth", "gauge", "Queued items in the core's ingress ring at sample time.",
		func(cs dataplane.CoreStats) float64 { return float64(cs.RingLen) }},
	{"neurocuts_dataplane_ring_high_watermark", "gauge", "Deepest ring occupancy the core's loop has observed at pop time.",
		func(cs dataplane.CoreStats) float64 { return float64(cs.RingHighWatermark) }},
	{"neurocuts_dataplane_parks_total", "counter", "Times the core's loop went idle and parked.",
		func(cs dataplane.CoreStats) float64 { return float64(cs.Parks) }},
	{"neurocuts_dataplane_wakes_total", "counter", "Times a producer roused the core's parked loop with a wake token.",
		func(cs dataplane.CoreStats) float64 { return float64(cs.Wakes) }},
	{"neurocuts_dataplane_epoch_lag", "gauge", "Snapshot generations the core's pinned view trails the engine head.",
		func(cs dataplane.CoreStats) float64 { return float64(cs.EpochLag) }},
	{"neurocuts_dataplane_cache_hit_ratio", "gauge", "Per-core flow-cache hit ratio in [0, 1] (0 with no cache or no traffic).",
		func(cs dataplane.CoreStats) float64 { return cs.HitRatio }},
	{"neurocuts_dataplane_batches_total", "counter", "Batch spans the core's loop has handled.",
		func(cs dataplane.CoreStats) float64 { return float64(cs.Batches) }},
	{"neurocuts_dataplane_packets_total", "counter", "Packets the core's loop has classified.",
		func(cs dataplane.CoreStats) float64 { return float64(cs.Packets) }},
}

// renderDataplane renders the run-to-completion dataplane's gauges: the
// core/ring shape, then one sample per core for each per-core family.
func renderDataplane(p *promWriter, st *dataplane.Stats) {
	p.family("neurocuts_dataplane_cores", "gauge", "Run-to-completion core loops attached to the engine.")
	p.sample("neurocuts_dataplane_cores", nil, float64(st.Cores))
	p.family("neurocuts_dataplane_ring_capacity", "gauge", "Per-core ingress ring capacity in items.")
	p.sample("neurocuts_dataplane_ring_capacity", nil, float64(st.RingCapacity))
	for _, m := range perCoreMetrics {
		p.family(m.name, m.typ, m.help)
		for _, cs := range st.PerCore {
			p.sample(m.name, []label{{"core", strconv.Itoa(cs.Core)}}, m.value(cs))
		}
	}
}
