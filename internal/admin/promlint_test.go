package admin

import (
	"strings"
	"testing"

	"neurocuts/internal/engine"
)

const cleanDoc = `# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total{table="acl"} 12
demo_requests_total{table="fw"} 3
# HELP demo_rules Rules loaded.
# TYPE demo_rules gauge
demo_rules 1.5e+03
# HELP demo_latency_seconds Latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="0.1"} 4
demo_latency_seconds_bucket{le="+Inf"} 9
demo_latency_seconds_sum 0.8
demo_latency_seconds_count 9
`

// cleanLabelledHist is a histogram family with two labelled series — the
// per-series histogram checks must track each (non-le) label set
// independently, so the second series restarting at a low le is fine.
const cleanLabelledHist = `# HELP h_seconds H.
# TYPE h_seconds histogram
h_seconds_bucket{path="single",le="0.1"} 4
h_seconds_bucket{path="single",le="+Inf"} 9
h_seconds_sum{path="single"} 0.8
h_seconds_count{path="single"} 9
h_seconds_bucket{path="batch",le="0.01"} 0
h_seconds_bucket{path="batch",le="+Inf"} 2
h_seconds_sum{path="batch"} 0.1
h_seconds_count{path="batch"} 2
`

func TestLintMetricsClean(t *testing.T) {
	if err := LintMetrics([]byte(cleanDoc)); err != nil {
		t.Fatalf("clean document rejected: %v", err)
	}
	if err := LintMetrics([]byte(cleanLabelledHist)); err != nil {
		t.Fatalf("labelled histogram rejected: %v", err)
	}
	escaped := "# HELP esc_gauge Escapes.\n# TYPE esc_gauge gauge\n" +
		`esc_gauge{err="path \"x\" broke \\ twice\nline two"} 1` + "\n"
	if err := LintMetrics([]byte(escaped)); err != nil {
		t.Fatalf("escaped label values rejected: %v", err)
	}
}

func TestLintMetricsViolations(t *testing.T) {
	cases := []struct {
		name    string
		doc     string
		wantErr string
	}{
		{"empty", "", "empty document"},
		{"no-trailing-newline", "# HELP a_total A.\n# TYPE a_total counter\na_total 1", "end with a newline"},
		{"sample-without-type", "a_gauge 1\n", "no preceding # TYPE"},
		{"type-after-samples",
			"# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge 1\n# TYPE a_gauge gauge\n",
			"second TYPE"},
		{"late-type",
			"# HELP b_gauge B.\n# TYPE b_gauge gauge\nb_gauge 1\n# HELP a_gauge A.\na_gauge 2\n# TYPE a_gauge gauge\n",
			"no preceding # TYPE"},
		{"double-help",
			"# HELP a_gauge A.\n# HELP a_gauge A again.\n# TYPE a_gauge gauge\na_gauge 1\n",
			"second HELP"},
		{"bad-type", "# HELP a A.\n# TYPE a wibble\na 1\n", "invalid metric type"},
		{"counter-without-total",
			"# HELP a_requests A.\n# TYPE a_requests counter\na_requests 1\n",
			"must end in _total"},
		{"interleaved",
			"# HELP a_gauge A.\n# TYPE a_gauge gauge\n# HELP b_gauge B.\n# TYPE b_gauge gauge\n" +
				"a_gauge{t=\"x\"} 1\nb_gauge 2\na_gauge{t=\"y\"} 3\n",
			"interleaved"},
		{"duplicate-sample",
			"# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge{t=\"x\"} 1\na_gauge{t=\"x\"} 2\n",
			"duplicate sample"},
		{"bad-metric-name", "# HELP 1bad A.\n# TYPE 1bad gauge\n1bad 1\n", "invalid metric name"},
		{"bad-label-name",
			"# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge{1t=\"x\"} 1\n",
			"invalid label name"},
		{"unquoted-label",
			"# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge{t=x} 1\n",
			"not quoted"},
		{"unterminated-label",
			"# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge{t=\"x} 1\n",
			"unterminated"},
		{"bad-escape",
			"# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge{t=\"\\t\"} 1\n",
			"invalid escape"},
		{"bad-value", "# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge one\n", "not a float"},
		{"no-value", "# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge\n", "no value"},
		{"blank-line", "# HELP a_gauge A.\n# TYPE a_gauge gauge\na_gauge 1\n\n", "empty line"},
		{"hist-le-not-increasing",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{le=\"0.2\"} 1\nh_seconds_bucket{le=\"0.1\"} 2\n" +
				"h_seconds_bucket{le=\"+Inf\"} 3\nh_seconds_sum 0.5\nh_seconds_count 3\n",
			"not strictly increasing"},
		{"hist-le-duplicate",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{le=\"0.1\"} 1\nh_seconds_bucket{le=\"0.10\"} 2\n" +
				"h_seconds_bucket{le=\"+Inf\"} 3\nh_seconds_sum 0.5\nh_seconds_count 3\n",
			"not strictly increasing"},
		{"hist-missing-inf",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{le=\"0.1\"} 1\nh_seconds_bucket{le=\"0.2\"} 2\n" +
				"h_seconds_sum 0.5\nh_seconds_count 2\n",
			"no le=\"+Inf\" bucket"},
		{"hist-not-cumulative",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{le=\"0.1\"} 5\nh_seconds_bucket{le=\"+Inf\"} 3\n" +
				"h_seconds_sum 0.5\nh_seconds_count 3\n",
			"not cumulative"},
		{"hist-bucket-after-inf",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{le=\"+Inf\"} 3\nh_seconds_bucket{le=\"9\"} 3\n" +
				"h_seconds_sum 0.5\nh_seconds_count 3\n",
			"bucket after le=\"+Inf\""},
		{"hist-count-mismatch",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{le=\"0.1\"} 1\nh_seconds_bucket{le=\"+Inf\"} 3\n" +
				"h_seconds_sum 0.5\nh_seconds_count 4\n",
			"_count 4 disagrees with its +Inf bucket 3"},
		{"hist-missing-count",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{le=\"0.1\"} 1\nh_seconds_bucket{le=\"+Inf\"} 3\nh_seconds_sum 0.5\n",
			"no _count sample"},
		{"hist-missing-sum",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{le=\"0.1\"} 1\nh_seconds_bucket{le=\"+Inf\"} 3\nh_seconds_count 3\n",
			"no _sum sample"},
		{"hist-bucket-without-le",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{path=\"x\"} 1\n",
			"no le label"},
		{"hist-bad-le",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
				"h_seconds_bucket{le=\"soon\"} 1\n",
			"not a float"},
		{"hist-bare-sample",
			"# HELP h_seconds H.\n# TYPE h_seconds histogram\nh_seconds 1\n",
			"must be _bucket, _sum or _count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LintMetrics([]byte(tc.doc))
			if err == nil {
				t.Fatalf("document accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestLintMetricsAcceptsLiveRender pins the renderer and the linter to each
// other: whatever renderMetrics produces for an empty snapshot must lint.
func TestLintMetricsAcceptsLiveRender(t *testing.T) {
	adm := New(engine.NewTables(), Options{})
	out := renderMetrics(adm.snapshot())
	if err := LintMetrics(out); err != nil {
		t.Fatalf("renderMetrics output fails its own lint: %v\n%s", err, out)
	}
}
