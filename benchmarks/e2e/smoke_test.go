package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeSuite runs all seven workloads end to end at smoke scale and
// checks what a result must have whatever the machine: every named metric
// present and finite, the gated ones non-zero, no wrong answer. It asserts
// nothing about how fast anything was.
func TestSmokeSuite(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	code, err := run(options{seed: 1, seconds: 10, trace: true, smoke: true, out: out, tmpRoot: t.TempDir()}, &stdout)
	if err != nil {
		t.Fatalf("suite: %v\n%s", err, stdout.String())
	}
	if code != 0 {
		t.Fatalf("suite exit code %d\n%s", code, stdout.String())
	}

	data, err := os.ReadFile(filepath.Join(out, "BENCH_e2e.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Provenance struct {
			GoVersion string `json:"go_version"`
			Transport string `json:"transport"`
			Seed      int64  `json:"seed"`
		} `json:"provenance"`
		Workloads []struct {
			Name      string             `json:"name"`
			EndToEnd  map[string]float64 `json:"end_to_end"`
			PerLayer  map[string]float64 `json:"per_layer"`
			Attempted int                `json:"attempted"`
			Failed    int                `json:"failed"`
			Cells     []json.RawMessage  `json:"cells"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("BENCH_e2e.json: %v", err)
	}
	if file.Provenance.GoVersion == "" || file.Provenance.Transport == "" || file.Provenance.Seed != 1 {
		t.Errorf("provenance incomplete: %+v", file.Provenance)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, w.Attempted, w.Failed)
		}
		for _, d := range gated {
			if v, ok := w.EndToEnd[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end %s = %v (present %v), want a positive finite value", w.Name, d.Name, v, ok)
			}
		}
		for _, d := range perLayerDefs() {
			if v, ok := w.PerLayer[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v), want a finite value", w.Name, d.Name, v, ok)
			}
		}
		if w.PerLayer["failed_share"] != 0 {
			t.Errorf("%s: failed_share = %v, want 0", w.Name, w.PerLayer["failed_share"])
		}
		// The layers a workload exists to exercise must have been measured.
		for _, name := range touched[w.Name] {
			if !(w.PerLayer[name] > 0) {
				t.Errorf("%s: %s = %v, want > 0 on this workload", w.Name, name, w.PerLayer[name])
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
	if n := len(file.Workloads[len(file.Workloads)-1].Cells); n != len(gridFamilies)*len(gridBackends) {
		t.Errorf("paper_grid table has %d cells, want %d", n, len(gridFamilies)*len(gridBackends))
	}
}

// touched names, per workload, per-layer metrics of the layers it is there
// to stress.
var touched = map[string][]string{
	"tree_cold":        {"compiled.batch_ns_pkt", "compiled.scalar_ns_pkt", "engine.batch_ns_pkt", "engine.single_ns", "backend.build_s", "compiled.compile_ms", "compiled.artifact_bytes"},
	"flow_zipf":        {"engine.batch_ns_pkt", "engine.cache_hit_ratio", "compiled.self_ns_pkt"},
	"ingest_dataplane": {"dataplane.batch_ns_pkt", "dataplane.cache_hit_ratio", "iface.pcap_decode_ns_pkt"},
	"wire_v2":          {"server.v2_batch_ns_pkt", "server.ping_rtt_us", "server.frame_encode_ns_pkt", "server.frame_decode_ns_pkt", "server.wire_bytes_per_pkt"},
	"wire_shm":         {"iface.shm_batch_ns_pkt", "iface.shm_pkts_per_server_batch"},
	"update_churn":     {"update_p50_us", "update_p99_us", "engine.insert_us", "updater.view_ns_pkt", "updater.journal_append_us", "updater.journal_bytes", "tss.classify_ns_pkt", "tss.insert_us", "tss.tuples"},
	"paper_grid":       {"nc_time_ratio", "nc_space_ratio", "backend.build_s", "backend.neurocuts_build_s", "compiled.save_ms", "compiled.load_ms"},
}

// TestDriverLine runs one workload the way the driver does and checks the
// shape of the line it reads.
func TestDriverLine(t *testing.T) {
	for _, trace := range []bool{false, true} {
		var stdout bytes.Buffer
		code, err := run(options{workload: "wire_shm", seed: 2, seconds: 10, trace: trace, smoke: true, tmpRoot: t.TempDir()}, &stdout)
		if err != nil || code != 0 {
			t.Fatalf("trace=%v: code %d, err %v", trace, code, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace=%v: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Failed == nil || *line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("trace=%v: correct/attempted/failed wrong in %s", trace, lines[len(lines)-1])
		}
		want := gated
		if trace {
			want = perLayerDefs()
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s = %+v, want a value in %s", trace, d.Name, m, d.Unit)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the tables this program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	sameDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	sameDefs("end_to_end", bm.EndToEnd, gated)
	sameDefs("per_layer", bm.PerLayer, perLayerDefs())
	for _, d := range gated {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
