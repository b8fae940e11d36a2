package compiled

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"neurocuts/internal/rule"
)

// SchemaVersion identifies the artifact binary schema. Bump it on any
// incompatible layout change; Load refuses artifacts written under a
// different version rather than guessing. The committed
// ARTIFACT_SCHEMA_VERSION file pins this value in CI so a bump is always an
// explicit, reviewed change.
const SchemaVersion = 1

// Magic opens every artifact file ("NeuroCuts Artifact Format").
var Magic = [4]byte{'N', 'C', 'A', 'F'}

// MaxArtifactBytes bounds how much Load will read; real artifacts are a few
// MB even for very large classifiers.
const MaxArtifactBytes = 1 << 30

// Metadata travels with an artifact and records how it was built. It is
// stored as JSON inside the binary envelope so the set of fields can grow
// without a schema bump.
type Metadata struct {
	// Backend is the engine registry name that built the tree ("neurocuts",
	// "hicuts", ...). Warm-started engines resolve it lazily for updates.
	Backend string `json:"backend"`
	// Rules is the classifier size at build time.
	Rules int `json:"rules"`
	// Binth is the leaf threshold the tree was built with.
	Binth int `json:"binth,omitempty"`
	// Source names the rule origin (a ClassBench family/size or file path).
	Source string `json:"source,omitempty"`
	// CreatedUnix is the build time in Unix seconds (0 when unknown).
	CreatedUnix int64 `json:"created_unix,omitempty"`
	// Note is free-form.
	Note string `json:"note,omitempty"`
}

// Artifact layout (all integers little-endian):
//
//	magic [4]byte "NCAF"
//	u32   schema version
//	u32   metadata length, then that many bytes of JSON
//	u32   rule count,      then count * 96B  {5 x (u64 lo, u64 hi), i64 priority, i64 id}
//	u32   root count,      then count * 4B   node indices
//	u32   node count,      then count * 18B  {u8 kind, u8 ndims, u32 a, u32 b, u32 cut, u32 cutN}
//	u32   leaf-rule count, then count * 4B   rule indices
//	u32   cut-desc count,  then count * 21B  {u8 dim, u32 count, u64 lo, u64 step}
//	u32   cut-point count, then count * 8B   boundaries
//	u32   CRC-32 (IEEE) of everything above
//
// Every section is length-prefixed, the trailer checksums the whole body,
// and Load re-validates all structural invariants, so truncated, corrupted
// or version-skewed bytes yield errors, never panics.
const (
	ruleRecordBytes    = rule.NumDims*16 + 16
	nodeRecordBytes    = 2 + 4*4
	cutDescRecordBytes = 1 + 4 + 8 + 8
)

// Save writes the classifier and its metadata as a versioned artifact, in
// the canonical layout (see canonical): what Compile built, byte for byte,
// however the serving layout shares spans.
func Save(w io.Writer, c *Classifier, meta Metadata) error {
	k, err := c.canonical()
	if err != nil {
		return err
	}
	return encode(w, k, meta)
}

// canonical returns c in the artifact's layout, sharing c's rules: the
// canonical nodes, the roots in node order, every leaf's own span in node
// order as 32-bit indices with a as the running offset, every cut's
// descriptors in node order, a cut with inline geometry's rebuilt from its
// node as {dim, count, lo, step}, and the boundary points as 64 bits. Compile
// emits exactly this layout, so the artifact does not depend on how
// deriveServing derives the serving one.
func (c *Classifier) canonical() (*Classifier, error) {
	k := &Classifier{
		rules:       c.rules,
		canonNodes:  make([]canonNode, len(c.nodes)),
		cutPoints64: make([]uint64, len(c.cutPoints)),
		// The walk order is derived (orderRoots), not stored, so it costs
		// the format nothing.
		roots: slices.Sorted(slices.Values(c.roots)),
	}
	for i, p := range c.cutPoints {
		k.cutPoints64[i] = uint64(p)
	}
	refs, err := c.canonicalRefs()
	if err != nil {
		return nil, err
	}
	descs := 0
	for i := range c.nodes {
		switch nd := &c.nodes[i]; nd.kind() {
		case kindCut:
			descs++
		case kindDescCut:
			descs += int(nd.dim())
		}
	}
	k.leafRules = make([]uint32, 0, refs)
	k.cutDescs = make([]cutDesc, 0, descs)
	for i := range c.nodes {
		nd, kn := &c.nodes[i], &k.canonNodes[i]
		kn.kind, kn.a, kn.b = nd.kind(), nd.a, nd.count()
		switch kn.kind {
		case kindLeaf:
			kn.a = uint32(len(k.leafRules))
			k.leafRules = c.appendLeaf(k.leafRules, nd.a, kn.b)
		case kindCut:
			kn.ndims, kn.cut = 1, uint32(len(k.cutDescs))
			k.cutDescs = append(k.cutDescs, cutDesc{lo: uint64(nd.lo), step: uint64(nd.step), count: kn.b, dim: nd.dim()})
		case kindDescCut:
			kn.kind, kn.ndims, kn.cut = kindCut, nd.dim(), uint32(len(k.cutDescs))
			k.cutDescs = append(k.cutDescs, c.cutDescs[nd.lo:nd.lo+uint32(kn.ndims)]...)
		case kindCustomCut:
			kn.ndims, kn.cut = nd.dim(), nd.lo
		}
	}
	return k, nil
}

// canonicalRefs counts c's leaf rule references, the length of its
// canonical leaf slab, and refuses a count beyond what an artifact can hold.
// Leaves may share and overlap spans, so the count can outgrow the slab they
// read: Save checks it before spelling the slab out, and Load before
// deriving the shared slab, whose distinct lists it bounds in turn. So
// neither allocates more than the artifact limit for it, and Load accepts
// only what Save can write back. c holds one of its node slabs: the serving
// one when Save calls, the canonical one when Load does.
func (c *Classifier) canonicalRefs() (uint64, error) {
	var refs uint64
	for i := range c.nodes {
		if nd := &c.nodes[i]; nd.kind() == kindLeaf {
			refs += uint64(nd.count())
		}
	}
	for i := range c.canonNodes {
		if nd := &c.canonNodes[i]; nd.kind == kindLeaf {
			refs += uint64(nd.b)
		}
	}
	if refs*4 > MaxArtifactBytes {
		return 0, fmt.Errorf("compiled: %d leaf rule references exceed the %d-byte artifact limit", refs, MaxArtifactBytes)
	}
	return refs, nil
}

// encode writes c's slabs as they stand, with meta, as an artifact.
func encode(w io.Writer, c *Classifier, meta Metadata) error {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("compiled: encoding metadata: %w", err)
	}
	var buf []byte
	buf = append(buf, Magic[:]...)
	buf = putU32(buf, SchemaVersion)
	buf = putU32(buf, uint32(len(metaJSON)))
	buf = append(buf, metaJSON...)

	buf = putU32(buf, uint32(len(c.rules)))
	for _, r := range c.rules {
		for _, d := range rule.Dimensions() {
			buf = putU64(buf, r.Ranges[d].Lo)
			buf = putU64(buf, r.Ranges[d].Hi)
		}
		buf = putU64(buf, uint64(int64(r.Priority)))
		buf = putU64(buf, uint64(int64(r.ID)))
	}
	buf = putU32(buf, uint32(len(c.roots)))
	for _, r := range c.roots {
		buf = putU32(buf, r)
	}
	buf = putU32(buf, uint32(len(c.canonNodes)))
	for i := range c.canonNodes {
		nd := &c.canonNodes[i]
		buf = append(buf, nd.kind, nd.ndims)
		buf = putU32(buf, nd.a)
		buf = putU32(buf, nd.b)
		buf = putU32(buf, nd.cut)
		// The boundary count is implied by the child count in memory but the
		// record keeps an explicit cutN field, byte-identical to artifacts
		// written before the node stopped storing it.
		cutN := uint32(0)
		if nd.kind == kindCustomCut {
			cutN = nd.b - 1
		}
		buf = putU32(buf, cutN)
	}
	buf = putU32(buf, uint32(len(c.leafRules)))
	for _, ri := range c.leafRules {
		buf = putU32(buf, ri)
	}
	buf = putU32(buf, uint32(len(c.cutDescs)))
	for i := range c.cutDescs {
		d := &c.cutDescs[i]
		buf = append(buf, d.dim)
		buf = putU32(buf, d.count)
		buf = putU64(buf, d.lo)
		buf = putU64(buf, d.step)
	}
	buf = putU32(buf, uint32(len(c.cutPoints64)))
	for _, p := range c.cutPoints64 {
		buf = putU64(buf, p)
	}
	buf = putU32(buf, crc32.ChecksumIEEE(buf))

	_, err = w.Write(buf)
	return err
}

// SaveFile writes the artifact to path (atomically via a temp file in the
// same directory, so a crash never leaves a truncated artifact behind).
func SaveFile(path string, c *Classifier, meta Metadata) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".artifact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, c, meta); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp opens 0600; artifacts are meant to be served by other
	// processes and users, so widen to the conventional file mode.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads a versioned artifact and reconstructs the classifier. It
// verifies the magic, schema version and checksum, bounds-checks every
// section against the payload length before allocating, and re-validates
// all structural invariants, so malformed input returns an error and the
// returned classifier can never panic during lookups.
func Load(r io.Reader) (*Classifier, Metadata, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxArtifactBytes+1))
	if err != nil {
		return nil, Metadata{}, fmt.Errorf("compiled: reading artifact: %w", err)
	}
	if len(data) > MaxArtifactBytes {
		return nil, Metadata{}, fmt.Errorf("compiled: artifact exceeds %d bytes", MaxArtifactBytes)
	}
	return LoadBytes(data)
}

// LoadFile loads an artifact from path.
func LoadFile(path string) (*Classifier, Metadata, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Metadata{}, err
	}
	defer f.Close()
	return Load(f)
}

// LoadBytes is Load over an in-memory artifact (the fuzz entry point).
func LoadBytes(data []byte) (*Classifier, Metadata, error) {
	var meta Metadata
	if len(data) < len(Magic)+4+4+4 {
		return nil, meta, fmt.Errorf("compiled: artifact truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != string(Magic[:]) {
		return nil, meta, fmt.Errorf("compiled: bad magic %q", data[:4])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, meta, fmt.Errorf("compiled: checksum mismatch (artifact corrupted): got %08x want %08x", got, want)
	}

	d := &decoder{b: body, off: 4}
	if v := d.u32(); d.err == nil && v != SchemaVersion {
		return nil, meta, fmt.Errorf("compiled: artifact schema version %d, this build reads version %d", v, SchemaVersion)
	}
	metaLen := d.u32()
	metaJSON := d.bytes(uint64(metaLen))
	if d.err == nil {
		if err := json.Unmarshal(metaJSON, &meta); err != nil {
			return nil, meta, fmt.Errorf("compiled: decoding metadata: %w", err)
		}
	}

	c := &Classifier{}
	if n := d.count(ruleRecordBytes); d.err == nil {
		c.rules = make([]rule.Rule, n)
		for i := range c.rules {
			r := &c.rules[i]
			for _, dim := range rule.Dimensions() {
				r.Ranges[dim].Lo = d.u64()
				r.Ranges[dim].Hi = d.u64()
			}
			r.Priority = int(int64(d.u64()))
			r.ID = int(int64(d.u64()))
		}
	}
	if n := d.count(4); d.err == nil {
		c.roots = make([]uint32, n)
		for i := range c.roots {
			c.roots[i] = d.u32()
		}
	}
	if n := d.count(nodeRecordBytes); d.err == nil {
		c.canonNodes = make([]canonNode, n)
		for i := range c.canonNodes {
			nd := &c.canonNodes[i]
			nd.kind = d.u8()
			nd.ndims = d.u8()
			nd.a = d.u32()
			nd.b = d.u32()
			nd.cut = d.u32()
			// In memory the boundary count is implied (b-1); the record's
			// explicit cutN is only checked for consistency.
			cutN := d.u32()
			if d.err == nil && nd.kind == kindCustomCut && uint64(cutN)+1 != uint64(nd.b) {
				return nil, meta, fmt.Errorf("compiled: node %d: %d boundaries need %d children, have %d", i, cutN, cutN+1, nd.b)
			}
		}
	}
	if n := d.count(4); d.err == nil {
		c.leafRules = make([]uint32, n)
		for i := range c.leafRules {
			c.leafRules[i] = d.u32()
		}
	}
	if n := d.count(cutDescRecordBytes); d.err == nil {
		c.cutDescs = make([]cutDesc, n)
		for i := range c.cutDescs {
			cd := &c.cutDescs[i]
			cd.dim = d.u8()
			cd.count = d.u32()
			cd.lo = d.u64()
			cd.step = d.u64()
		}
	}
	if n := d.count(8); d.err == nil {
		c.cutPoints64 = make([]uint64, n)
		for i := range c.cutPoints64 {
			c.cutPoints64[i] = d.u64()
		}
	}
	if d.err != nil {
		return nil, meta, fmt.Errorf("compiled: %w", d.err)
	}
	if d.off != len(d.b) {
		return nil, meta, fmt.Errorf("compiled: %d trailing bytes after artifact body", len(d.b)-d.off)
	}
	// The artifact holds the canonical layout: validate it, then derive the
	// serving layout as Compile does.
	if _, err := c.canonicalRefs(); err != nil {
		return nil, meta, fmt.Errorf("compiled: invalid artifact: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, meta, fmt.Errorf("compiled: invalid artifact: %w", err)
	}
	c.deriveServing()
	return c, meta, nil
}

// decoder is a bounds-checked little-endian cursor; the first overrun
// latches err and turns every later read into a no-op.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(n uint64) {
	if d.err == nil {
		d.err = fmt.Errorf("artifact truncated: need %d bytes at offset %d, have %d", n, d.off, len(d.b)-d.off)
	}
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(n)
		return nil
	}
	out := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return out
}

// count reads a u32 element count and verifies the section's payload
// (count * recordBytes) fits in the remaining input before the caller
// allocates, so hostile counts cannot trigger huge allocations.
func (d *decoder) count(recordBytes int) uint32 {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if need := uint64(n) * uint64(recordBytes); need > uint64(len(d.b)-d.off) {
		d.fail(need)
		return 0
	}
	return n
}

func (d *decoder) u8() uint8 {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func putU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func putU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
