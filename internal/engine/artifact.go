package engine

import (
	"fmt"
	"path/filepath"
	"time"

	"neurocuts/internal/compiled"
)

// JournalPathFor returns the conventional co-located journal path for a
// compiled artifact: the artifact path plus ".journal". Keeping the pair
// side by side means a warm start that finds both files can always
// reconstruct the exact acknowledged state.
func JournalPathFor(artifactPath string) string { return artifactPath + ".journal" }

// NewEngineFromArtifact warm-starts an engine from a compiled classifier
// artifact: it serves its first lookup straight from the loaded flat-array
// form, without invoking any backend build or train path. The artifact's
// backend name is resolved against the registry lazily and only matters for
// compaction; if the name is not registered, the engine still serves lookups
// and accepts updates, but its overlay can never be folded back into the
// base. When opts.JournalPath names an existing journal its
// records are replayed on top of the artifact before the engine is
// returned, restoring every update acknowledged before the last shutdown
// or crash.
func NewEngineFromArtifact(path string, opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s, err := loadArtifactSnap(path, opts.Binth)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(s, opts)
	if err != nil {
		return nil, err
	}
	e.artifactPath = path
	return e, nil
}

// loadArtifactSnap loads the artifact at path as a first-generation
// snapshot. Its backend name resolves against the registry only for the
// builder a compaction needs; an unregistered name leaves build nil. The
// snapshot keeps the leaf threshold the metadata records, or binth when it
// records none.
func loadArtifactSnap(path string, binth int) (*snapshot, error) {
	c, meta, err := compiled.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: loading artifact %s: %w", path, err)
	}
	cls := &compiledClassifier{c: c, m: compiledMetrics(meta.Backend, c)}
	var build Builder
	if entry, err := lookupBackend(meta.Backend); err == nil {
		build = entry.build
	}
	if meta.Binth > 0 {
		binth = meta.Binth
	}
	return &snapshot{cls: cls, set: c.RuleSet(), version: 1, rulesGen: 1, backend: meta.Backend, binth: binth, build: build, baseCls: cls}, nil
}

// ArtifactMetadata returns the metadata SaveArtifact would stamp on the
// current snapshot.
func (e *Engine) artifactMetadata(s *snapshot) compiled.Metadata {
	return compiled.Metadata{
		Backend:     s.backend,
		Rules:       s.len(),
		Binth:       s.binth,
		CreatedUnix: time.Now().Unix(),
	}
}

// SaveArtifact persists the current snapshot's compiled classifier (and its
// rule set) as a versioned artifact at path. It fails for the one backend
// that has no compiled form, linear. Any pending overlay updates are
// first folded in by a synchronous compaction so the artifact embodies every
// acknowledged update.
//
// The journal rotates (resets to empty over the new checkpoint) only when
// the save targets the engine's own pair: path is the journal's co-located
// companion (JournalPathFor(path) equals the configured journal path) or
// the artifact this engine was started from / last loaded. A save to any
// other path is a side snapshot: the journal must keep describing the
// engine's original starting list, or a crash after the save would leave
// the configured artifact+journal pair unable to reconstruct acknowledged
// updates.
//
// The checkpoint itself is two durable steps (artifact rename, then journal
// rotation), ordered so a crash between them never loses data: the new
// artifact already embodies every journaled update, and the stale journal
// fails the next warm start loudly (fingerprint mismatch) instead of
// replaying onto the wrong base — remove the stale journal to proceed.
func (e *Engine) SaveArtifact(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.snap.Load()
	if s.ov != nil {
		t0 := time.Now()
		ns, err := e.rebuild(s)
		if err != nil {
			return fmt.Errorf("engine: compacting: %w", err)
		}
		e.publishCompaction(ns, t0)
		s = ns
	}
	cp, ok := s.cls.(CompiledProvider)
	if !ok {
		return fmt.Errorf("engine: backend %q has no compiled artifact form", s.backend)
	}
	if err := compiled.SaveFile(path, cp.Compiled(), e.artifactMetadata(s)); err != nil {
		return err
	}
	if e.journal != nil && (samePath(JournalPathFor(path), e.journal.Path()) || samePath(path, e.artifactPath)) {
		return e.rotateJournalLocked(s)
	}
	return nil
}

// samePath compares two file paths by their canonical absolute form, so
// "policy.ncaf" and "./policy.ncaf" name the same checkpoint. Symlinked
// spellings can still differ — treated as distinct paths, which errs on the
// side of NOT rotating the journal (recoverable) rather than rotating for
// the wrong file.
func samePath(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA != nil || errB != nil {
		return filepath.Clean(a) == filepath.Clean(b)
	}
	return aa == bb
}

// rotateJournalLocked resets the journal over the snapshot's rule list
// after a checkpoint (artifact save or load). Caller holds e.mu.
func (e *Engine) rotateJournalLocked(s *snapshot) error {
	if e.journal == nil {
		return nil
	}
	return e.journal.Rotate(s.journalMeta())
}

// LoadArtifact loads a compiled classifier artifact and atomically swaps it
// in as the next snapshot (same RCU discipline as Insert/Delete: in-flight
// lookups finish against the old snapshot). The engine's backend identity
// follows the artifact's metadata. The overlay resets (its base is derived
// again over the loaded list by the next update) and the journal rotates: a
// load replaces the rule universe, so the previous update history cannot
// describe the new state — after a load, the journal (and crash recovery)
// pairs with the loaded artifact, and a restart from the pre-load artifact
// fails loudly with a fingerprint mismatch rather than silently serving
// stale rules. A closed engine loads nothing and fails with ErrClosed.
func (e *Engine) LoadArtifact(path string) (UpdateResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.snap.Load()
	if e.closed {
		return cur.failed(), ErrClosed
	}
	ns, err := loadArtifactSnap(path, e.opts.Binth)
	if err != nil {
		return cur.failed(), err
	}
	ns.version, ns.rulesGen = cur.version+1, cur.rulesGen+1
	e.publishSnap(ns)
	e.artifactPath = path
	e.overlayDirty.Store(0)
	e.raiseNextID(ns.set)
	res := UpdateResult{ID: -1, Version: ns.version, Rules: ns.set.Len()}
	return res, e.rotateJournalLocked(ns)
}
