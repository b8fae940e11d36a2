package classbench

import (
	"strings"
	"testing"

	"neurocuts/internal/rule"
)

// FuzzParseRule asserts that arbitrary rule-file lines never panic the
// ClassBench parser: a malformed filter line must come back as an error, and
// every accepted line must yield a well-formed rule that survives a
// write/parse round trip. The seed corpus mixes real generated rules (one
// per family kind) with hand-picked malformed shapes.
func FuzzParseRule(f *testing.F) {
	for _, family := range []string{"acl1", "fw1", "ipc1"} {
		fam, err := FamilyByName(family)
		if err != nil {
			f.Fatal(err)
		}
		set := Generate(fam, 5, 1)
		for _, r := range set.Rules() {
			f.Add(rule.FormatClassBenchLine(r))
		}
	}
	malformed := []string{
		"",
		"@",
		"no leading at",
		"@1.2.3.4/33 5.6.7.8/0 0 : 65535 0 : 65535 0x06/0xFF",
		"@1.2.3.4/8 5.6.7.8/0 99999 : 3 0 : 65535 0x06/0xFF",
		"@1.2.3.4/8 5.6.7.8/0 5 : 3 0 : 65535 0x06/0xFF",
		"@1.2.3.4/8 5.6.7.8/0 0 ; 65535 0 : 65535 0x06/0xFF",
		"@1.2.3.4/8 5.6.7.8/0 0 : 65535 0 : 65535 0xZZ/0xFF",
		"@1.2.3.4/8 5.6.7.8/0 0 : 65535 0 : 65535 0x06/0x0F",
		"@256.0.0.1/8 5.6.7.8/0 0 : 65535 0 : 65535 0x06/0xFF",
		"@1.2.3.4/8 5.6.7.8/0 0 : 65535 0 : 65535",
		"@\x00\xff/0 0.0.0.0/0 0 : 0 0 : 0 0/0",
	}
	for _, s := range malformed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r, err := rule.ParseClassBenchLine(line)
		if err != nil {
			return
		}
		// Accepted rules must be structurally valid...
		if err := r.Validate(); err != nil {
			t.Fatalf("parse of %q accepted an invalid rule: %v", line, err)
		}
		// ...and port/proto fields must round-trip exactly through the
		// writer (IP ranges may legitimately widen to a covering prefix).
		again, err := rule.ParseClassBenchLine(strings.TrimSpace(rule.FormatClassBenchLine(r)))
		if err != nil {
			t.Fatalf("re-parsing formatted rule %q: %v", rule.FormatClassBenchLine(r), err)
		}
		for _, d := range []rule.Dimension{rule.DimSrcPort, rule.DimDstPort, rule.DimProto} {
			if again.Ranges[d] != r.Ranges[d] {
				t.Errorf("%s of %q changed across round trip: %v -> %v", d, line, r.Ranges[d], again.Ranges[d])
			}
		}
	})
}
