package engine

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
)

// saveTestArtifact builds a HiCuts tree over the set, compiles it and
// writes an artifact stamped with the given backend name, returning the
// path. Stamping an arbitrary backend name lets tests prove that warm
// starts never touch the build path: an unregistered (or poisoned) backend
// can still serve.
func saveTestArtifact(t *testing.T, set *rule.Set, backend, dir string) string {
	t.Helper()
	tr, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiled.Compile(set, tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "artifact.ncaf")
	meta := compiled.Metadata{Backend: backend, Rules: set.Len(), Binth: 16}
	if err := compiled.SaveFile(path, c, meta); err != nil {
		t.Fatal(err)
	}
	return path
}

func artifactTestSet(t *testing.T, size int) *rule.Set {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(fam, size, 3)
}

// poisonedErr is returned by the poisoned backend's builder; any test that
// sees it has proven a build path ran when it must not have.
var poisonedErr = errors.New("build path invoked")

func init() {
	// A backend whose build always fails: artifacts stamped with this name
	// can only serve if the warm-start path truly skips building.
	Register("poisoned-test-backend", "Poisoned", func(set *rule.Set, opts Options) (Classifier, error) {
		return nil, poisonedErr
	})
}

// TestWarmStartServesWithoutBuilding is the acceptance test for artifact
// warm starts: an engine loaded from an artifact whose backend build always
// fails must still construct and serve correct lookups — proof that no
// backend build or train path is invoked before the first lookup.
func TestWarmStartServesWithoutBuilding(t *testing.T) {
	set := artifactTestSet(t, 200)
	path := saveTestArtifact(t, set, "poisoned-test-backend", t.TempDir())

	eng, err := NewEngineFromArtifact(path, Options{})
	if err != nil {
		t.Fatalf("warm start invoked the build path: %v", err)
	}
	defer eng.Close()
	if eng.Backend() != "poisoned-test-backend" {
		t.Fatalf("backend = %q, want artifact metadata name", eng.Backend())
	}
	if eng.Rules().Len() != set.Len() {
		t.Fatalf("rule set: %d rules, want %d", eng.Rules().Len(), set.Len())
	}
	mismatches := 0
	for _, e := range classbench.GenerateTrace(set, 3000, 9) {
		got := -1
		if r, ok := eng.Classify(e.Key); ok {
			got = r.Priority
		}
		if got != set.MatchIndex(e.Key) {
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d lookups diverge from linear search after warm start", mismatches)
	}
	// An update does not build either; folding it in does, so on this
	// backend the save's compaction must fail — with the poisoned builder's
	// error, proving the build path is reached only now.
	if _, err := eng.Insert(0, rule.NewWildcardRule(0)); err != nil {
		t.Fatalf("Insert after poisoned warm start invoked the build path: %v", err)
	}
	if err := eng.SaveArtifact(filepath.Join(t.TempDir(), "x.ncaf")); !errors.Is(err, poisonedErr) {
		t.Fatalf("SaveArtifact over a pending overlay: err = %v, want the build-path error", err)
	}
}

// TestWarmStartUnknownBackend: artifacts from unregistered backends serve
// lookups and take updates, but their overlay can never be folded in — and
// the compaction says so instead of returning silently.
func TestWarmStartUnknownBackend(t *testing.T) {
	set := artifactTestSet(t, 100)
	path := saveTestArtifact(t, set, "no-such-backend", t.TempDir())
	eng, err := NewEngineFromArtifact(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if r, ok := eng.Classify(rule.Packet{Proto: 6}); !ok && set.MatchIndex(rule.Packet{Proto: 6}) >= 0 {
		t.Fatalf("lookup failed after warm start: %v %v", r, ok)
	}
	res, err := eng.Insert(0, rule.NewWildcardRule(0))
	if err != nil {
		t.Fatalf("Insert on unknown backend: %v", err)
	}
	if r, ok := eng.Classify(rule.Packet{Proto: 6}); !ok || r.ID != res.ID {
		t.Fatalf("inserted wildcard not winning: %v %v", r, ok)
	}
	eng.compactOnce()
	st := eng.UpdaterStats()
	if st.CompactFailures != 1 || !strings.Contains(st.LastCompactError, "not registered") || st.OverlayRules != 1 {
		t.Fatalf("stats after a compaction with no builder = %+v, want 1 failure naming the backend and the overlay kept", st)
	}
}

// TestEngineSaveLoadArtifact round-trips an engine-built classifier through
// SaveArtifact / NewEngineFromArtifact / LoadArtifact and checks the
// results and update behaviour are preserved.
func TestEngineSaveLoadArtifact(t *testing.T) {
	set := artifactTestSet(t, 250)
	dir := t.TempDir()
	path := filepath.Join(dir, "hicuts.ncaf")

	src, err := NewEngine("hicuts", set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.SaveArtifact(path); err != nil {
		t.Fatal(err)
	}

	warm, err := NewEngineFromArtifact(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.Backend() != "hicuts" {
		t.Fatalf("backend = %q, want hicuts", warm.Backend())
	}
	packets := make([]rule.Packet, 0, 2000)
	for _, e := range classbench.GenerateTrace(set, 2000, 21) {
		packets = append(packets, e.Key)
	}
	for _, p := range packets {
		ar, aok := src.Classify(p)
		br, bok := warm.Classify(p)
		if aok != bok || (aok && ar.Priority != br.Priority) {
			t.Fatalf("packet %v: built=(%v,%v) warm=(%v,%v)", p, ar.Priority, aok, br.Priority, bok)
		}
	}
	// Live updates work after a warm start, as on any engine.
	res, err := warm.Insert(0, rule.NewWildcardRule(0))
	if err != nil {
		t.Fatalf("Insert after warm start: %v", err)
	}
	if res.Version != 2 || res.Rules != set.Len()+1 {
		t.Fatalf("unexpected update result %+v", res)
	}
	if r, ok := warm.Classify(packets[0]); !ok || r.Priority != 0 {
		t.Fatalf("inserted top wildcard not winning: %v %v", r, ok)
	}

	// LoadArtifact swaps the artifact back in atomically, bumping the version.
	res, err = warm.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 3 || res.Rules != set.Len() {
		t.Fatalf("unexpected load result %+v", res)
	}
	for _, p := range packets[:200] {
		ar, aok := src.Classify(p)
		br, bok := warm.Classify(p)
		if aok != bok || (aok && ar.Priority != br.Priority) {
			t.Fatalf("after LoadArtifact, packet %v diverges", p)
		}
	}
}

// TestSaveArtifactUnsupportedBackend: backends with no compiled form
// refuse to save, with or without a pending overlay to fold in first.
func TestSaveArtifactUnsupportedBackend(t *testing.T) {
	set := artifactTestSet(t, 50)
	eng, err := NewEngine("linear", set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, when := range []string{"clean", "after an update"} {
		if err := eng.SaveArtifact(filepath.Join(t.TempDir(), "x.ncaf")); err == nil || !strings.Contains(err.Error(), "no compiled artifact form") {
			t.Fatalf("linear backend, %s: SaveArtifact err = %v, want 'no compiled artifact form'", when, err)
		}
		if _, err := eng.Insert(0, rule.NewWildcardRule(0)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArtifactBinthRoundTrip: an engine warm-started from an artifact, or
// hot-swapped onto one, keeps the leaf threshold the artifact records. A
// re-save stamps it and a compaction rebuilds with it, whatever the
// engine's own Options.Binth says.
func TestArtifactBinthRoundTrip(t *testing.T) {
	set := artifactTestSet(t, 300)
	dir := t.TempDir()
	metaBinth := func(path string) int {
		t.Helper()
		_, meta, err := compiled.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return meta.Binth
	}

	src, err := NewEngine("hicuts", set, Options{Binth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	first := filepath.Join(dir, "binth8.ncaf")
	if err := src.SaveArtifact(first); err != nil {
		t.Fatal(err)
	}
	if got := metaBinth(first); got != 8 {
		t.Fatalf("cold-built artifact records binth %d, want 8", got)
	}

	warm, err := NewEngineFromArtifact(first, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	resaved := filepath.Join(dir, "resaved.ncaf")
	if err := warm.SaveArtifact(resaved); err != nil {
		t.Fatal(err)
	}
	if got := metaBinth(resaved); got != 8 {
		t.Fatalf("warm-started re-save records binth %d, want 8", got)
	}

	// A pending update makes SaveArtifact compact first: the rebuilt tree
	// must be the binth-8 tree over the merged list, not the default's.
	if _, err := warm.Delete(set.Rule(0).ID); err != nil {
		t.Fatal(err)
	}
	compacted := filepath.Join(dir, "compacted.ncaf")
	if err := warm.SaveArtifact(compacted); err != nil {
		t.Fatal(err)
	}
	if got := metaBinth(compacted); got != 8 {
		t.Fatalf("compacted save records binth %d, want 8", got)
	}
	want := func(binth int) Metrics {
		t.Helper()
		ref, err := NewEngine("hicuts", warm.Rules(), Options{Binth: binth})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		return ref.Metrics()
	}
	if want(8) == want(16) {
		t.Fatal("binth 8 and 16 build the same tree over this set; the check below proves nothing")
	}
	if got := warm.Metrics(); got != want(8) {
		t.Fatalf("compaction rebuilt %+v, want the binth-8 tree %+v", got, want(8))
	}

	// A hot swap onto the artifact adopts its threshold too.
	cold, err := NewEngine("hicuts", set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if _, err := cold.LoadArtifact(first); err != nil {
		t.Fatal(err)
	}
	swapped := filepath.Join(dir, "swapped.ncaf")
	if err := cold.SaveArtifact(swapped); err != nil {
		t.Fatal(err)
	}
	if got := metaBinth(swapped); got != 8 {
		t.Fatalf("hot-swapped engine's save records binth %d, want 8", got)
	}
}
