// Package linkcheck validates the repository's Markdown cross-references:
// every relative link must point at a file that exists, and every fragment
// (#anchor) must name a heading that GitHub's renderer would actually
// produce in the target document.
//
// Docs rot exactly one way: a file moves or a heading is reworded and the
// links that pointed at it keep looking plausible. External URLs can only
// be checked with network access, so they are out of scope; everything the
// repository can verify hermetically, it does — in a plain test
// (internal/linkcheck) that runs in `go test ./...` and as an explicit CI
// step.
//
// Commands rot the same way: a package is deleted and the `go run ./cmd/x`
// lines in the README, the verify notes and CI keep looking plausible.
// checkCommands resolves every ./package argument of a go run|build|test
// command to a directory that holds Go files, and every name in a go test
// -run/-fuzz/-bench pattern to a function in those packages: go test exits 0
// with "no tests to run" when a pattern matches nothing, so a renamed test
// would otherwise silently un-run the CI step that names it.
//
// Code rots a third way: the last caller of an export goes and the export
// stays, kept alive by its own tests. deadExports (exports.go) type-checks
// the module and reports every exported symbol under internal/ that no
// non-test file uses, unless an explicit allow-list names it.
package linkcheck

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline Markdown links [text](target). Images
// ![alt](target) match too (the bang is outside the capture); reference
// links and autolinks are rare enough here not to need handling.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingRE matches ATX headings; the capture is the heading text.
var headingRE = regexp.MustCompile(`(?m)^#{1,6}\s+(.*?)\s*#*\s*$`)

// codeFenceRE strips fenced code blocks so example links inside ``` fences
// (shell snippets, protocol transcripts) are not treated as references.
var codeFenceRE = regexp.MustCompile("(?ms)^```.*?^```[ \t]*$")

// inlineCodeRE strips `inline code` spans for the same reason.
var inlineCodeRE = regexp.MustCompile("`[^`\n]*`")

// Problem is one broken reference or dead export.
type Problem struct {
	File    string // the file (file:line for an export) it was found in
	Subject string // the link target or argument as written, or the symbol
	Reason  string
}

func (p Problem) String() string {
	return fmt.Sprintf("%s: %q: %s", p.File, p.Subject, p.Reason)
}

// slugify reproduces GitHub's heading-anchor algorithm closely enough for
// this repository: lowercase, spaces and dashes become dashes, everything
// that is not a letter, digit, dash or underscore is dropped.
func slugify(heading string) string {
	heading = inlineCodeRE.ReplaceAllStringFunc(heading, func(s string) string {
		return strings.Trim(s, "`")
	})
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ' || r == '-':
			b.WriteByte('-')
		case r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r > 127: // non-ASCII letters survive slugification
			b.WriteRune(r)
		}
	}
	return b.String()
}

// anchors returns the set of heading anchors a rendered document exposes.
func anchors(markdown string) map[string]bool {
	out := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(codeFenceRE.ReplaceAllString(markdown, ""), -1) {
		slug := slugify(m[1])
		// GitHub de-duplicates repeated headings as slug, slug-1, slug-2...
		if out[slug] {
			for i := 1; ; i++ {
				dedup := fmt.Sprintf("%s-%d", slug, i)
				if !out[dedup] {
					out[dedup] = true
					break
				}
			}
		} else {
			out[slug] = true
		}
	}
	return out
}

// external reports whether the target leaves the repository (or the
// filesystem entirely) and so cannot be checked hermetically.
func external(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "//")
}

// checkFiles validates every relative link in the given Markdown files
// (paths relative to root) and returns one Problem per broken reference.
func checkFiles(root string, files []string) ([]Problem, error) {
	var problems []Problem
	for _, rel := range files {
		raw, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return nil, err
		}
		doc := string(raw)
		stripped := codeFenceRE.ReplaceAllString(doc, "")
		for _, m := range linkRE.FindAllStringSubmatch(stripped, -1) {
			target := m[1]
			if external(target) {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			// Pure fragment: an anchor within this document.
			targetFile := rel
			if path != "" {
				if strings.HasPrefix(path, "/") {
					problems = append(problems, Problem{rel, target, "absolute path; use a repo-relative link"})
					continue
				}
				targetFile = filepath.Join(filepath.Dir(rel), path)
				if _, err := os.Stat(filepath.Join(root, targetFile)); err != nil {
					problems = append(problems, Problem{rel, target, "target does not exist"})
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(strings.ToLower(targetFile), ".md") {
				continue // anchors into non-markdown files are not ours to judge
			}
			tRaw := raw
			if targetFile != rel {
				if tRaw, err = os.ReadFile(filepath.Join(root, targetFile)); err != nil {
					return nil, err
				}
			}
			if !anchors(string(tRaw))[frag] {
				problems = append(problems, Problem{rel, target, fmt.Sprintf("no heading with anchor #%s in %s", frag, targetFile)})
			}
		}
	}
	return problems, nil
}

// goCmdRE matches a go run|build|test command up to the end of its line or
// the next shell separator or closing backtick, stepping over quoted
// arguments (-run 'TestA|TestB'); pkgArgRE picks a ./package argument (or a
// bare "." for the root package) out of one of its fields; selectorRE picks out the -run,
// -fuzz and -bench patterns of a go test command, quotes included;
// testFuncRE the functions a pattern can select.
var (
	goCmdRE    = regexp.MustCompile("\\bgo (?:run|build|test)\\b(?:'[^'\n]*'|\"[^\"\n]*\"|[^\n|;&`])*")
	pkgArgRE   = regexp.MustCompile(`^(?:\./[\w./-]*|\.$)`)
	selectorRE = regexp.MustCompile(`\s--?(run|fuzz|bench)[= ]('[^']*'|"[^"]*"|\S+)`)
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// selectable lists, per flag, the function-name prefixes the flag selects
// among (go test -run also runs fuzz targets over their seed corpus).
var selectable = map[string][]string{
	"run":   {"Test", "Fuzz"},
	"fuzz":  {"Fuzz"},
	"bench": {"Benchmark"},
}

// testFuncs returns the Test/Fuzz/Benchmark functions declared in dir's
// _test.go files.
func testFuncs(dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	var names []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, m := range testFuncRE.FindAllSubmatch(raw, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}

// staleSelectors returns the alternatives of cmd's -run/-fuzz/-bench
// patterns that match no function in dirs, applying each the way go test
// does: as an unanchored regexp on the name (the part before any /subtest).
// "^$", "." and "xxx" select nothing or everything on purpose.
func staleSelectors(cmd string, dirs []string) []string {
	var names []string
	for _, d := range dirs {
		names = append(names, testFuncs(d)...)
	}
	var stale []string
	for _, m := range selectorRE.FindAllStringSubmatch(cmd, -1) {
		pattern := strings.Trim(m[2], `'"`)
		if pattern == "^$" || pattern == "." || pattern == "xxx" {
			continue
		}
	alternatives:
		for _, alt := range strings.Split(pattern, "|") {
			top, _, _ := strings.Cut(alt, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				stale = append(stale, alt+" (not a regexp on its own)")
				continue
			}
			for _, name := range names {
				for _, prefix := range selectable[m[1]] {
					if strings.HasPrefix(name, prefix) && re.MatchString(name) {
						continue alternatives
					}
				}
			}
			stale = append(stale, alt)
		}
	}
	return stale
}

// holdsGo reports whether dir (with its subdirectories when deep, the
// meaning of a trailing /...) contains a Go file.
func holdsGo(dir string, deep bool) bool {
	found := false
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil || found:
			return fs.SkipAll
		case d.IsDir() && path != dir && !deep:
			return fs.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			found = true
		}
		return nil
	})
	return found
}

// checkCommands finds the go run|build|test commands in the given files
// (Markdown, code fences included, or shell-bearing YAML; paths relative to
// root, which the commands are taken to run from) and returns one Problem
// per ./package argument that names no directory holding Go files, and one
// per -run/-fuzz/-bench alternative that selects nothing in the packages the
// command names (commands over a /... tree are not searched).
func checkCommands(root string, files []string) ([]Problem, error) {
	var problems []Problem
	for _, rel := range files {
		raw, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return nil, err
		}
		for _, cmd := range goCmdRE.FindAllString(string(raw), -1) {
			var dirs []string
			anyDeep := false
			for _, field := range strings.Fields(cmd) {
				arg := pkgArgRE.FindString(field)
				if arg == "" {
					continue
				}
				dir, deep := strings.CutSuffix(arg, "...")
				anyDeep = anyDeep || deep
				dirs = append(dirs, filepath.Join(root, dir))
				if !holdsGo(filepath.Join(root, dir), deep) {
					problems = append(problems, Problem{rel, arg, "no Go files there, in: " + strings.TrimSpace(cmd)})
				}
			}
			if anyDeep || len(dirs) == 0 {
				continue
			}
			for _, alt := range staleSelectors(cmd, dirs) {
				problems = append(problems, Problem{rel, alt, "selects no test function in the packages named, in: " + strings.TrimSpace(cmd)})
			}
		}
	}
	return problems, nil
}
