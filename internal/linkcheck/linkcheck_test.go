package linkcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the working directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's working directory")
		}
		dir = parent
	}
}

// markdownFiles finds every .md file in the repository, skipping VCS and
// generated/vendored trees.
func markdownFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "vendor", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("found no markdown files — the walker is broken")
	}
	return files
}

// TestMarkdownLinks is the repository's docs gate: every relative link in
// every committed Markdown file resolves, and every #anchor names a real
// heading. Runs in the plain test suite and as an explicit CI step.
func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	files := markdownFiles(t, root)
	problems, err := checkFiles(root, files)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p.String())
	}
	t.Logf("checked %d markdown files", len(files))
}

// TestCommandPackagePaths is the same gate for commands: every ./package
// argument of a go run|build|test command in a committed Markdown file or in
// the CI workflow names a directory that holds Go files. CHANGES.md and
// ISSUE.md are exempt: they record what a PR removes, by name.
func TestCommandPackagePaths(t *testing.T) {
	root := repoRoot(t)
	files := []string{".github/workflows/ci.yml"}
	for _, f := range markdownFiles(t, root) {
		if f != "CHANGES.md" && f != "ISSUE.md" {
			files = append(files, f)
		}
	}
	problems, err := checkCommands(root, files)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p.String())
	}
}

// TestSlugify pins the anchor algorithm against GitHub's observed output.
func TestSlugify(t *testing.T) {
	cases := []struct{ heading, want string }{
		{"Architecture", "architecture"},
		{"The run-to-completion dataplane", "the-run-to-completion-dataplane"},
		{"Snapshot / overlay / journal lifecycle", "snapshot--overlay--journal-lifecycle"},
		{"Serving (`classifyd`)", "serving-classifyd"},
		{"Wire protocol v2", "wire-protocol-v2"},
		{"Artifacts & warm start", "artifacts--warm-start"},
		{"Path 1: the worker-pool engine (default)", "path-1-the-worker-pool-engine-default"},
	}
	for _, c := range cases {
		if got := slugify(c.heading); got != c.want {
			t.Errorf("slugify(%q) = %q, want %q", c.heading, got, c.want)
		}
	}
}

// TestCheckFilesCatchesBreakage proves the checker actually fails on the
// breakage classes it exists for — a test of the test.
func TestCheckFilesCatchesBreakage(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.md", strings.Join([]string{
		"# Alpha",
		"",
		"[ok](b.md) [ok2](b.md#beta) [self](#alpha)",
		"[gone](missing.md) [badfrag](b.md#nope) [badself](#omega)",
		"",
		"```",
		"[inside a fence](never-checked.md)",
		"```",
	}, "\n"))
	write("b.md", "# Beta\n")
	problems, err := checkFiles(dir, []string{"a.md", "b.md"})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]bool{}
	for _, p := range problems {
		bad[p.Subject] = true
	}
	for _, want := range []string{"missing.md", "b.md#nope", "#omega"} {
		if !bad[want] {
			t.Errorf("checker missed broken link %q (got %v)", want, problems)
		}
	}
	if len(problems) != 3 {
		t.Errorf("want exactly 3 problems, got %d: %v", len(problems), problems)
	}
}

// TestCheckCommandsCatchesBreakage: a deleted package, a misspelt one, an
// empty tree and a -run/-fuzz name no function answers to are reported; real
// packages, ./..., flag values, live names and "^$" are not.
func TestCheckCommandsCatchesBreakage(t *testing.T) {
	dir := t.TempDir()
	for f, body := range map[string]string{
		"cmd/tool/main.go": "", "internal/lib/lib.go": "", "docs/only.txt": "",
		"internal/lib/lib_test.go": "func TestA(t *testing.T) {}\nfunc FuzzLive(f *testing.F) {}\n",
	} {
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	doc := strings.Join([]string{
		"Run `go run ./cmd/tool -out /tmp/x.json` or `go run ./cmd/gone sub -flag 1`.",
		"```sh",
		"go build -o /tmp/bin/ ./cmd/... && go test -race -run 'TestA|TestB' ./internal/lib ./internal/libb",
		"        run: go test ./... ; go test ./docs/...",
		"        run: go test -run=^$ -fuzz=FuzzLive ./internal/lib ; go test -fuzz=FuzzRenamed ./internal/lib",
		"```",
	}, "\n")
	if err := os.WriteFile(filepath.Join(dir, "a.md"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := checkCommands(dir, []string{"a.md"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range problems {
		got = append(got, p.Subject)
	}
	if want := "./cmd/gone ./internal/libb TestB ./docs/... FuzzRenamed"; strings.Join(got, " ") != want {
		t.Errorf("problems = %v, want %s", problems, want)
	}
}

// exportAllow lists the exports under internal/ that no non-test Go file
// uses but that stay exported, each with its reason.
var exportAllow = map[string]string{
	"internal/server.ClientV2.CreateTable":       "client half of a served op; the tests drive the server through it",
	"internal/server.ClientV2.DropTable":         "client half of a served op; the tests drive the server through it",
	"internal/core.Trainer.LoadCheckpoint":       "reads what neurocuts -checkpoint writes",
	"internal/packet.IPv4Header.DecodeFromBytes": "reference decoder the pcap differential tests hold the in-place one to",
	"internal/packet.TCPHeader.DecodeFromBytes":  "reference decoder the pcap differential tests hold the in-place one to",
	"internal/packet.UDPHeader.DecodeFromBytes":  "reference decoder the pcap differential tests hold the in-place one to",
	"internal/packet.ProtoICMP":                  "enum member beside ProtoTCP and ProtoUDP",
	"internal/classbench.PortExact":              "enum member of the port-class kinds",
}

// TestDeadExports is the gate against exports nothing calls: every exported
// package-level symbol and method under internal/ is used by a non-test Go
// file of the module (benchmarks/ included), implements an interface
// method, or is on exportAllow. Delete such a symbol, or unexport it when
// only its own package's tests need it.
func TestDeadExports(t *testing.T) {
	problems, err := deadExports(repoRoot(t), exportAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p.String())
	}
}

// TestDeadExportsCatchesBreakage runs the check over testdata/deadexports:
// an export nothing calls and one only its package's test calls are
// reported with file:line; an allow-listed one, a String method
// (fmt.Stringer) and a method called only through an interface literal are
// not; an allow-list entry naming a used symbol is.
func TestDeadExportsCatchesBreakage(t *testing.T) {
	problems, err := deadExports(filepath.Join("testdata", "deadexports"), map[string]string{
		"internal/lib.Allowed": "fixture",
		"internal/lib.Name":    "fixture: used, so a stale entry",
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range problems {
		got = append(got, p.File+" "+p.Subject)
	}
	want := "internal/lib/lib.go:7 internal/lib.Unused|" +
		"internal/lib/lib.go:18 internal/lib.OnlyTested|" +
		"allow-list internal/lib.Name"
	if strings.Join(got, "|") != want {
		t.Errorf("problems = %v, want %s", problems, want)
	}
}
