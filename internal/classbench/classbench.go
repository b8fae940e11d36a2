// Package classbench generates synthetic packet classifiers and header
// traces with the structural characteristics of the ClassBench benchmark
// suite (Taylor & Turner, INFOCOM 2005), which the NeuroCuts paper uses for
// its entire evaluation.
//
// The original ClassBench ships twelve seed parameter files derived from
// real classifiers: five access-control lists (acl1-acl5), five firewalls
// (fw1-fw5) and two IP-chain filter sets (ipc1, ipc2). The db_generator tool
// scales a seed up to a requested number of rules while preserving the
// seed's structural statistics: the joint prefix-length distribution of the
// source/destination address pair, the port-range class mix (wildcard,
// ephemeral-high, well-known-low, arbitrary range, exact match), the
// protocol distribution and the overall wildcard density.
//
// This package reproduces that behaviour from family-level parameter tables
// rather than the original seed files (which are not redistributable): each
// Family below encodes the published qualitative signature of its namesake —
// ACL sets have long, specific prefixes and exact destination ports; FW sets
// have many wildcard/short source prefixes and arbitrary port ranges (the
// classifiers that cause heavy rule replication in cutting algorithms); IPC
// sets sit in between. Generation is fully deterministic given (family,
// size, seed).
package classbench

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"neurocuts/internal/rule"
)

// Kind is the coarse family category.
type Kind int

// The three ClassBench family categories.
const (
	KindACL Kind = iota
	KindFW
	KindIPC
)

// String returns "acl", "fw" or "ipc".
func (k Kind) String() string {
	switch k {
	case KindACL:
		return "acl"
	case KindFW:
		return "fw"
	case KindIPC:
		return "ipc"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// PortClass is one of the five ClassBench port-range classes.
type PortClass int

// Port range classes, following the ClassBench taxonomy.
const (
	PortWildcard  PortClass = iota // 0 : 65535
	PortHigh                       // 1024 : 65535 (ephemeral)
	PortLow                        // 0 : 1023 (well-known)
	PortArbitrary                  // arbitrary [lo, hi] range
	PortExact                      // a single port
)

// Family describes the structural statistics of one ClassBench seed.
type Family struct {
	// Name is the canonical seed name, e.g. "acl1" or "fw5".
	Name string
	// Kind is the coarse category.
	Kind Kind

	// SrcPrefixLens and DstPrefixLens are categorical distributions over
	// prefix lengths (index = prefix length 0..32, value = relative weight).
	SrcPrefixLens [33]float64
	DstPrefixLens [33]float64

	// SrcPortClasses and DstPortClasses are relative weights over the five
	// port classes, indexed by PortClass.
	SrcPortClasses [5]float64
	DstPortClasses [5]float64

	// ProtoWeights maps protocol numbers to relative weights. Protocol 0
	// stands for "wildcard".
	ProtoWeights map[uint8]float64

	// AddressLocality controls how clustered the generated prefixes are: the
	// generator draws addresses from a small pool of network "centres" with
	// this probability, and uniformly otherwise. Real classifiers are highly
	// clustered, which is what gives cutting algorithms traction.
	AddressLocality float64

	// Centres is the number of distinct network centres per dimension.
	Centres int
}

// Families returns the twelve seed families used throughout the paper's
// evaluation (acl1-5, fw1-5, ipc1-2) in the order they appear in Figures 8
// and 9.
func Families() []Family {
	out := make([]Family, 0, 12)
	for i := 1; i <= 5; i++ {
		out = append(out, makeACL(i))
	}
	for i := 1; i <= 5; i++ {
		out = append(out, makeFW(i))
	}
	for i := 1; i <= 2; i++ {
		out = append(out, makeIPC(i))
	}
	return out
}

// FamilyByName looks up a family by its seed name ("acl3", "fw1", ...).
func FamilyByName(name string) (Family, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, f := range Families() {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("classbench: unknown family %q", name)
}

// makeACL builds the acl<i> family. ACL seeds are dominated by long, specific
// prefixes on both addresses, exact or well-known destination ports, and
// explicit protocols; wildcards are rare.
func makeACL(i int) Family {
	f := Family{
		Name:            fmt.Sprintf("acl%d", i),
		Kind:            KindACL,
		AddressLocality: 0.85,
		Centres:         24 + 8*i,
	}
	for l := 16; l <= 32; l++ {
		f.SrcPrefixLens[l] = 1 + float64(l-15)
		f.DstPrefixLens[l] = 1 + float64(l-15)
	}
	// A sprinkle of wildcards / very short prefixes, increasing slightly with
	// the seed index to differentiate acl1..acl5.
	f.SrcPrefixLens[0] = 2 + float64(i)
	f.DstPrefixLens[0] = 1 + float64(i)*0.5
	f.SrcPrefixLens[8] = 1
	f.DstPrefixLens[8] = 1

	f.SrcPortClasses = [5]float64{70, 10, 5, 5, 10}
	f.DstPortClasses = [5]float64{15, 10, 15, 10 + 5*float64(i), 50}
	f.ProtoWeights = map[uint8]float64{6: 60, 17: 25, 1: 5, 0: 10}
	return f
}

// makeFW builds the fw<i> family. Firewall seeds have many wildcard or very
// short source prefixes, moderately specific destinations, arbitrary port
// ranges, and a higher overall wildcard density — the classic worst case for
// rule replication under equal-sized cutting.
func makeFW(i int) Family {
	f := Family{
		Name:            fmt.Sprintf("fw%d", i),
		Kind:            KindFW,
		AddressLocality: 0.7,
		Centres:         12 + 4*i,
	}
	f.SrcPrefixLens[0] = 30 + float64(i)*4
	f.SrcPrefixLens[8] = 10
	f.SrcPrefixLens[16] = 10
	f.SrcPrefixLens[24] = 15
	f.SrcPrefixLens[32] = 20

	f.DstPrefixLens[0] = 10 + float64(i)*2
	f.DstPrefixLens[16] = 15
	f.DstPrefixLens[24] = 30
	f.DstPrefixLens[32] = 30

	f.SrcPortClasses = [5]float64{45, 20, 10, 20, 5}
	f.DstPortClasses = [5]float64{25, 15, 15, 25, 20}
	f.ProtoWeights = map[uint8]float64{6: 45, 17: 30, 1: 8, 47: 4, 50: 3, 0: 10}
	return f
}

// makeIPC builds the ipc<i> family, which mixes ACL-like specific rules with
// FW-like wildcard-heavy rules.
func makeIPC(i int) Family {
	f := Family{
		Name:            fmt.Sprintf("ipc%d", i),
		Kind:            KindIPC,
		AddressLocality: 0.8,
		Centres:         20 + 10*i,
	}
	f.SrcPrefixLens[0] = 12 + 6*float64(i)
	f.DstPrefixLens[0] = 8 + 4*float64(i)
	for l := 16; l <= 32; l += 4 {
		f.SrcPrefixLens[l] = 10
		f.DstPrefixLens[l] = 12
	}
	f.SrcPrefixLens[32] = 25
	f.DstPrefixLens[32] = 25

	f.SrcPortClasses = [5]float64{55, 12, 8, 10, 15}
	f.DstPortClasses = [5]float64{20, 12, 12, 16, 40}
	f.ProtoWeights = map[uint8]float64{6: 50, 17: 30, 1: 8, 0: 12}
	return f
}

// Load returns the classifier a command line names: the ClassBench-format
// file at path when path is set, otherwise family ("" selects acl1)
// generated at size rules from seed.
func Load(path, family string, size int, seed int64) (*rule.Set, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return rule.ParseClassBench(f)
	}
	if family == "" {
		family = "acl1"
	}
	fam, err := FamilyByName(family)
	if err != nil {
		return nil, err
	}
	return Generate(fam, size, seed), nil
}

// Generate builds a classifier of the requested size from the family's
// structural statistics. The final rule is always the catch-all default, so
// every packet matches something. Generation is deterministic for a given
// (family, size, seed).
func Generate(f Family, size int, seed int64) *rule.Set {
	if size < 1 {
		size = 1
	}
	rng := rand.New(rand.NewSource(seed ^ int64(hashName(f.Name))))
	g := newGenerator(f, rng)

	rules := make([]rule.Rule, 0, size)
	seen := make(map[[rule.NumDims]rule.Range]struct{}, size)
	attempts := 0
	for len(rules) < size-1 && attempts < size*20 {
		attempts++
		r := g.rule()
		if _, dup := seen[r.Ranges]; dup {
			continue
		}
		seen[r.Ranges] = struct{}{}
		rules = append(rules, r)
	}
	rules = append(rules, rule.NewWildcardRule(len(rules)))
	return rule.NewSet(rules)
}

// generator holds the sampling state for one classifier.
type generator struct {
	f          Family
	rng        *rand.Rand
	srcCentres []uint32
	dstCentres []uint32
	srcCDF     []float64
	dstCDF     []float64
	protoList  []uint8
	protoCDF   []float64
}

func newGenerator(f Family, rng *rand.Rand) *generator {
	g := &generator{f: f, rng: rng}
	g.srcCentres = make([]uint32, f.Centres)
	g.dstCentres = make([]uint32, f.Centres)
	for i := range g.srcCentres {
		g.srcCentres[i] = rng.Uint32()
		g.dstCentres[i] = rng.Uint32()
	}
	g.srcCDF = cumulative(f.SrcPrefixLens[:])
	g.dstCDF = cumulative(f.DstPrefixLens[:])

	g.protoList = make([]uint8, 0, len(f.ProtoWeights))
	for p := range f.ProtoWeights {
		g.protoList = append(g.protoList, p)
	}
	sort.Slice(g.protoList, func(i, j int) bool { return g.protoList[i] < g.protoList[j] })
	weights := make([]float64, len(g.protoList))
	for i, p := range g.protoList {
		weights[i] = f.ProtoWeights[p]
	}
	g.protoCDF = cumulative(weights)
	return g
}

func (g *generator) rule() rule.Rule {
	r := rule.NewWildcardRule(0)
	r.Ranges[rule.DimSrcIP] = g.prefix(g.srcCDF, g.srcCentres)
	r.Ranges[rule.DimDstIP] = g.prefix(g.dstCDF, g.dstCentres)
	r.Ranges[rule.DimSrcPort] = g.port(g.f.SrcPortClasses)
	r.Ranges[rule.DimDstPort] = g.port(g.f.DstPortClasses)
	r.Ranges[rule.DimProto] = g.proto()
	return r
}

func (g *generator) prefix(cdf []float64, centres []uint32) rule.Range {
	plen := uint(sampleCDF(g.rng, cdf))
	if plen == 0 {
		return rule.FullRange(rule.DimSrcIP)
	}
	var addr uint32
	if g.rng.Float64() < g.f.AddressLocality {
		centre := centres[g.rng.Intn(len(centres))]
		// Jitter the low bits so that rules under the same centre still
		// differ; the amount of jitter shrinks as the prefix gets longer.
		jitterBits := uint(32) - plen + 6
		if jitterBits > 32 {
			jitterBits = 32
		}
		jitter := uint32(g.rng.Uint64()) & uint32((uint64(1)<<jitterBits)-1)
		addr = centre ^ jitter
	} else {
		addr = g.rng.Uint32()
	}
	return rule.PrefixRange(uint64(addr), plen, 32)
}

func (g *generator) port(classWeights [5]float64) rule.Range {
	cdf := cumulative(classWeights[:])
	switch PortClass(sampleCDF(g.rng, cdf)) {
	case PortWildcard:
		return rule.FullRange(rule.DimSrcPort)
	case PortHigh:
		return rule.Range{Lo: 1024, Hi: 65535}
	case PortLow:
		return rule.Range{Lo: 0, Hi: 1023}
	case PortArbitrary:
		a := uint64(g.rng.Intn(65536))
		width := uint64(1 + g.rng.Intn(8192))
		b := a + width
		if b > 65535 {
			b = 65535
		}
		return rule.Range{Lo: a, Hi: b}
	default: // PortExact
		p := uint64(wellKnownPorts[g.rng.Intn(len(wellKnownPorts))])
		return rule.Range{Lo: p, Hi: p}
	}
}

func (g *generator) proto() rule.Range {
	p := g.protoList[sampleCDF(g.rng, g.protoCDF)]
	if p == 0 {
		return rule.FullRange(rule.DimProto)
	}
	return rule.Range{Lo: uint64(p), Hi: uint64(p)}
}

// wellKnownPorts is the pool of exact-match ports the generator draws from,
// mirroring the service ports that dominate real classifiers.
var wellKnownPorts = []uint16{
	20, 21, 22, 23, 25, 53, 67, 68, 80, 110, 119, 123, 135, 137, 138, 139,
	143, 161, 162, 179, 389, 443, 445, 465, 514, 587, 636, 993, 995, 1433,
	1521, 1723, 3306, 3389, 5060, 5432, 8080, 8443,
}

func cumulative(weights []float64) []float64 {
	out := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		sum += w
		out[i] = sum
	}
	if sum == 0 {
		// Degenerate: make it uniform.
		for i := range out {
			out[i] = float64(i + 1)
		}
	}
	return out
}

func sampleCDF(rng *rand.Rand, cdf []float64) int {
	total := cdf[len(cdf)-1]
	x := rng.Float64() * total
	idx := sort.SearchFloat64s(cdf, x)
	if idx >= len(cdf) {
		idx = len(cdf) - 1
	}
	return idx
}

func hashName(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
