package classbench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"neurocuts/internal/rule"
)

func TestFamilies(t *testing.T) {
	fams := Families()
	if len(fams) != 12 {
		t.Fatalf("Families() returned %d entries, want 12", len(fams))
	}
	wantNames := []string{"acl1", "acl2", "acl3", "acl4", "acl5", "fw1", "fw2", "fw3", "fw4", "fw5", "ipc1", "ipc2"}
	for i, f := range fams {
		if f.Name != wantNames[i] {
			t.Errorf("family %d = %q, want %q", i, f.Name, wantNames[i])
		}
		if f.Centres <= 0 || f.AddressLocality <= 0 || f.AddressLocality > 1 {
			t.Errorf("family %s has degenerate parameters: %+v", f.Name, f)
		}
	}
	if KindACL.String() != "acl" || KindFW.String() != "fw" || KindIPC.String() != "ipc" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestFamilyByName(t *testing.T) {
	f, err := FamilyByName("  FW3 ")
	if err != nil || f.Name != "fw3" || f.Kind != KindFW {
		t.Fatalf("FamilyByName = %+v, %v", f, err)
	}
	if _, err := FamilyByName("acl9"); err == nil {
		t.Error("unknown family should error")
	}
}

func TestGenerateBasicProperties(t *testing.T) {
	for _, f := range Families() {
		s := Generate(f, 200, 1)
		if s.Len() < 150 || s.Len() > 200 {
			t.Errorf("%s: generated %d rules, want close to 200", f.Name, s.Len())
		}
		if !hasDefaultRule(s) {
			t.Errorf("%s: missing default rule", f.Name)
		}
		for i, r := range s.Rules() {
			if err := r.Validate(); err != nil {
				t.Errorf("%s: invalid rule %d: %v", f.Name, i, err)
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	f, _ := FamilyByName("acl1")
	a := Generate(f, 100, 7)
	b := Generate(f, 100, 7)
	if a.Len() != b.Len() {
		t.Fatalf("non-deterministic size: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Rule(i).Ranges != b.Rule(i).Ranges {
			t.Fatalf("rule %d differs between identical generations", i)
		}
	}
	c := Generate(f, 100, 8)
	same := true
	for i := 0; i < a.Len() && i < c.Len(); i++ {
		if a.Rule(i).Ranges != c.Rule(i).Ranges {
			same = false
			break
		}
	}
	if same && a.Len() == c.Len() {
		t.Error("different seeds produced identical classifiers")
	}
}

func TestFamilySignatures(t *testing.T) {
	// The structural signature the decision-tree algorithms care about:
	// firewall seeds must have far more source-IP wildcards than ACL seeds.
	acl, _ := FamilyByName("acl1")
	fw, _ := FamilyByName("fw1")
	aclSet, fwSet := Generate(acl, 1000, 3), Generate(fw, 1000, 3)
	aclSrc, aclAll := wildcards(aclSet)
	fwSrc, fwAll := wildcards(fwSet)

	if fwSrc <= aclSrc {
		t.Errorf("fw src wildcards (%d) should exceed acl (%d)", fwSrc, aclSrc)
	}
	if float64(fwAll)/float64(fwSet.Len()) <= float64(aclAll)/float64(aclSet.Len()) {
		t.Errorf("fw avg wildcards (%d/%d) should exceed acl (%d/%d)", fwAll, fwSet.Len(), aclAll, aclSet.Len())
	}
	// ACL classifiers should carry plenty of distinct, specific IP prefixes.
	members := make([]int32, aclSet.Len())
	for i := range members {
		members[i] = int32(i)
	}
	if n := rule.DistinctRangeCount(aclSet.Rules(), members, rule.DimSrcIP); n < 100 {
		t.Errorf("acl1 has only %d distinct src ranges", n)
	}
}

// wildcards counts s's rules that leave the source address unconstrained,
// and the wildcard dimensions of all its rules.
func wildcards(s *rule.Set) (src, all int) {
	for _, r := range s.Rules() {
		for _, d := range rule.Dimensions() {
			if r.Ranges[d].IsFull(d) {
				all++
				if d == rule.DimSrcIP {
					src++
				}
			}
		}
	}
	return src, all
}

// hasDefaultRule reports whether s's lowest-priority rule matches every
// packet.
func hasDefaultRule(s *rule.Set) bool {
	last := s.Rule(s.Len() - 1)
	for _, d := range rule.Dimensions() {
		if !last.Ranges[d].IsFull(d) {
			return false
		}
	}
	return true
}

func TestGenerateSizeOneAndClamping(t *testing.T) {
	f, _ := FamilyByName("ipc1")
	s := Generate(f, 0, 1)
	if s.Len() != 1 || !hasDefaultRule(s) {
		t.Fatalf("size-0 generation = %d rules", s.Len())
	}
	s = Generate(f, 1, 1)
	if s.Len() != 1 {
		t.Fatalf("size-1 generation = %d rules", s.Len())
	}
}

func TestGeneratedClassifierRoundTripsThroughClassBenchFormat(t *testing.T) {
	f, _ := FamilyByName("acl2")
	s := Generate(f, 50, 11)
	var buf bytes.Buffer
	if err := rule.WriteClassBench(&buf, s); err != nil {
		t.Fatal(err)
	}
	parsed, err := rule.ParseClassBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != s.Len() {
		t.Fatalf("round trip size %d != %d", parsed.Len(), s.Len())
	}
}

func TestGenerateTrace(t *testing.T) {
	f, _ := FamilyByName("fw2")
	s := Generate(f, 100, 5)
	trace := GenerateTrace(s, 500, 9)
	if len(trace) != 500 {
		t.Fatalf("trace length %d", len(trace))
	}
	nonDefault := 0
	for i, e := range trace {
		if e.MatchRule < 0 || e.MatchRule >= s.Len() {
			t.Fatalf("entry %d has match %d outside classifier", i, e.MatchRule)
		}
		got := s.MatchIndex(e.Key)
		if got != e.MatchRule {
			t.Fatalf("entry %d ground truth %d but linear search says %d", i, e.MatchRule, got)
		}
		if e.MatchRule != s.Len()-1 {
			nonDefault++
		}
	}
	// The trace must actually exercise the classifier, not just the default
	// rule.
	if nonDefault < len(trace)/4 {
		t.Errorf("only %d/%d packets matched a non-default rule", nonDefault, len(trace))
	}
	// Determinism.
	again := GenerateTrace(s, 500, 9)
	for i := range trace {
		if trace[i] != again[i] {
			t.Fatalf("trace generation not deterministic at %d", i)
		}
	}
	// Degenerate inputs.
	if got := GenerateTrace(rule.NewSet(nil), 10, 1); len(got) != 0 {
		t.Error("empty classifier should produce empty trace")
	}
	if got := GenerateTrace(s, 0, 1); len(got) != 0 {
		t.Error("zero-length trace should be empty")
	}
}

func TestUniformTrace(t *testing.T) {
	f, _ := FamilyByName("acl1")
	s := Generate(f, 50, 2)
	trace := UniformTrace(s, 200, 3)
	if len(trace) != 200 {
		t.Fatalf("trace length %d", len(trace))
	}
	for i, e := range trace {
		if got := s.MatchIndex(e.Key); got != e.MatchRule {
			t.Fatalf("entry %d ground truth mismatch", i)
		}
	}
}

func TestTraceLocality(t *testing.T) {
	f, _ := FamilyByName("acl3")
	s := Generate(f, 100, 1)
	trace := GenerateTrace(s, 1000, 4)
	// Bursts mean consecutive duplicates should appear.
	dups := 0
	for i := 1; i < len(trace); i++ {
		if trace[i].Key == trace[i-1].Key {
			dups++
		}
	}
	if dups == 0 {
		t.Error("expected temporal locality (repeated packets) in the trace")
	}
}

// TestLoad: a path loads the file, and without one the family is generated
// ("" selecting acl1); an unknown family fails by name.
func TestLoad(t *testing.T) {
	want := Generate(mustFamily(t, "fw2"), 50, 3)
	path := filepath.Join(t.TempDir(), "rules.txt")
	var buf bytes.Buffer
	if err := rule.WriteClassBench(&buf, want); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := Load(path, "acl1", 10, 1)
	if err != nil || fromFile.Len() != want.Len() {
		t.Fatalf("Load(file) = %v rules, %v; want %d rules", fromFile, err, want.Len())
	}
	for i, r := range want.Rules() {
		if got := fromFile.Rule(i); got.Ranges != r.Ranges {
			t.Fatalf("Load(file) rule %d = %v, want %v", i, got.Ranges, r.Ranges)
		}
	}
	generated, err := Load("", "fw2", 50, 3)
	if err != nil || !reflect.DeepEqual(generated.Rules(), want.Rules()) {
		t.Fatalf("Load(\"\", fw2) differs from Generate: %v", err)
	}
	def, err := Load("", "", 40, 2)
	if err != nil || !reflect.DeepEqual(def.Rules(), Generate(mustFamily(t, "acl1"), 40, 2).Rules()) {
		t.Fatalf("Load with no family is not acl1: %v", err)
	}
	if _, err := Load("", "nosuch", 10, 1); err == nil || !strings.Contains(err.Error(), `unknown family "nosuch"`) {
		t.Fatalf("Load(nosuch) error = %v", err)
	}
}

func mustFamily(t *testing.T, name string) Family {
	t.Helper()
	f, err := FamilyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
