package compiled_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
)

// fixChecksum rewrites the artifact's CRC trailer so structural mutations
// reach the validators instead of dying at the corruption check.
func fixChecksum(artifact []byte) {
	if len(artifact) < 4 {
		return
	}
	body := artifact[:len(artifact)-4]
	binary.LittleEndian.PutUint32(artifact[len(artifact)-4:], crc32.ChecksumIEEE(body))
}

// FuzzLoad drives compiled.LoadBytes with arbitrary bytes: it must either
// return an error or return a classifier whose lookups cannot panic, whose
// batched walk agrees with its scalar lookup, and whose every answer the
// reference rule.Matches confirms (the leaf scans run the packed kernel).
// Truncations, bit flips, version skews and checksum-repaired structural
// mutations are all seeded so the fuzzer starts at the interesting paths.
func FuzzLoad(f *testing.F) {
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		f.Fatal(err)
	}
	set := classbench.Generate(fam, 60, 1)
	tr, err := hicuts.Build(set, hicuts.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	c, err := compiled.Compile(set, tr)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compiled.Save(&buf, c, compiled.Metadata{Backend: "hicuts", Rules: set.Len()}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("NCAF"))
	for _, n := range []int{8, 16, 40, len(valid) / 3, len(valid) - 5} {
		if n > 0 && n < len(valid) {
			f.Add(append([]byte(nil), valid[:n]...))
		}
	}
	// Version skew with a repaired checksum.
	skew := append([]byte(nil), valid...)
	skew[4] = 0x63
	fixChecksum(skew)
	f.Add(skew)
	// Structural mutations with repaired checksums: these must be caught by
	// the invariant validators, not the CRC.
	for off := 16; off < len(valid)-4; off += 13 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		fixChecksum(mut)
		f.Add(mut)
	}

	probes := []rule.Packet{
		{},
		{SrcIP: ^uint32(0), DstIP: ^uint32(0), SrcPort: ^uint16(0), DstPort: ^uint16(0), Proto: ^uint8(0)},
		{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 1234, DstPort: 80, Proto: 6},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, _, err := compiled.LoadBytes(data)
		if err != nil {
			return
		}
		// A classifier that passed validation must serve lookups safely.
		batch := make([]int32, len(probes))
		c.LookupBatch(probes, batch)
		for i, p := range probes {
			c.Lookup(p)
			idx := c.LookupIndex(p)
			if idx >= 0 && !c.Rules()[idx].Matches(p) {
				t.Fatalf("packet %v: lookup returned rule %d, which does not match", p, idx)
			}
			if int(batch[i]) != idx {
				t.Fatalf("packet %v: batch=%d scalar=%d", p, batch[i], idx)
			}
		}
		_ = c.Stats()
		_ = c.RuleSet()
	})
}
