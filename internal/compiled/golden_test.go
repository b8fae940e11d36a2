package compiled_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/compiled"
	"neurocuts/internal/core"
	"neurocuts/internal/cutsplit"
	"neurocuts/internal/efficuts"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/hypercuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// goldenRow is one cell of the "same trees" table: the paper's tree metrics
// and the CRC-32 of the compiled artifact, which covers every node, cut
// descriptor, boundary and leaf rule reference of the forest.
type goldenRow struct {
	family, backend string
	size            int
	nodes, leaves   int
	ruleRefs        int
	time, bytes     int
	crc             uint32
}

// goldenTable was recorded at commit 5b425c6, the last one whose nodes held
// rule copies and whose cuts rescanned the parent's list once per child.
// Tree construction since then must reproduce every cell bit for bit; a
// change that is meant to build different trees re-records the table and
// says so.
var goldenTable = []goldenRow{
	{"acl1", "hicuts", 1000, 529, 496, 2208, 3, 28240, 0x626738e5},
	{"acl1", "hypercuts", 1000, 705, 664, 2530, 4, 34336, 0xeb340b69},
	{"acl1", "efficuts", 1000, 344, 323, 1002, 14, 14864, 0x31c3860a},
	{"acl1", "cutsplit", 1000, 1032, 1029, 1000, 7, 28624, 0xe4060a72},
	{"acl1", "neurocuts", 1000, 6375, 5875, 67874, 14, 670488, 0x8d307a38},
	{"fw1", "hicuts", 1000, 15, 12, 135, 3, 1376, 0x8e17894c},
	{"fw1", "hypercuts", 1000, 65, 64, 496, 2, 5264, 0x88f104c8},
	{"fw1", "efficuts", 1000, 218, 205, 1656, 20, 17568, 0xeea130c8},
	{"fw1", "cutsplit", 1000, 338, 313, 961, 11, 14432, 0x5f6dc152},
	{"fw1", "neurocuts", 1000, 5705, 5205, 36345, 14, 404856, 0x1b293841},
	{"ipc1", "hicuts", 1000, 2541, 1420, 16023, 33, 179000, 0x4e4a7271},
	{"ipc1", "hypercuts", 1000, 10593, 9943, 68538, 10, 760160, 0x49a216a0},
	{"ipc1", "efficuts", 1000, 233, 219, 1247, 25, 14588, 0xf35de7a2},
	{"ipc1", "cutsplit", 1000, 1072, 1063, 992, 9, 29360, 0xcbb328c0},
	{"ipc1", "neurocuts", 1000, 8343, 7843, 91217, 21, 896592, 0xf39ea082},
	{"acl1", "hicuts", 10000, 15665, 11952, 66978, 35, 849120, 0x03067f2c},
	{"acl1", "cutsplit", 10000, 2012, 1634, 10024, 12, 120416, 0xd4e8f9ab},
}

// goldenTrees builds the forest of one cell the way the engine backends do.
// The NeuroCuts budget (1 500 steps, 500 per rollout, 2 workers) is the
// paper_grid one: three truncated rollouts under the initial policy, whose
// seeds do not depend on which worker finishes first.
func goldenTrees(t *testing.T, backend string, set *rule.Set) []*tree.Tree {
	t.Helper()
	var (
		trees []*tree.Tree
		err   error
	)
	switch backend {
	case "hicuts":
		var tr *tree.Tree
		tr, err = hicuts.Build(set, hicuts.DefaultConfig())
		trees = []*tree.Tree{tr}
	case "hypercuts":
		var tr *tree.Tree
		tr, err = hypercuts.Build(set, hypercuts.DefaultConfig())
		trees = []*tree.Tree{tr}
	case "efficuts":
		var c *efficuts.Classifier
		if c, err = efficuts.Build(set, efficuts.DefaultConfig()); err == nil {
			trees = c.Trees
		}
	case "cutsplit":
		var c *cutsplit.Classifier
		if c, err = cutsplit.Build(set, cutsplit.DefaultConfig()); err == nil {
			trees = c.Trees
		}
	case "neurocuts":
		cfg := core.Scaled(1000)
		cfg.MaxTimesteps = 1500
		cfg.BatchTimesteps = 256
		cfg.Workers = 2
		cfg.Seed = 1
		trainer := core.NewTrainer(set, cfg)
		if _, err = trainer.Train(); err == nil {
			tr, _ := trainer.BestTree()
			trees = []*tree.Tree{tr}
		}
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	return trees
}

func goldenCell(t *testing.T, family, backend string, size int) goldenRow {
	t.Helper()
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, size, 1)
	trees := goldenTrees(t, backend, set)
	m := tree.MultiMetrics(trees)
	c, err := compiled.Compile(set, trees...)
	if err != nil {
		t.Fatalf("%s/%s/%d: compile: %v", family, backend, size, err)
	}
	var buf bytes.Buffer
	if err := compiled.Save(&buf, c, compiled.Metadata{Backend: backend, Rules: set.Len()}); err != nil {
		t.Fatal(err)
	}
	return goldenRow{
		family: family, backend: backend, size: size,
		nodes: m.Nodes, leaves: m.Leaves, ruleRefs: m.RuleRefs,
		time: m.ClassificationTime, bytes: m.MemoryBytes,
		crc: crc32.ChecksumIEEE(buf.Bytes()[:buf.Len()-4]), // the last four bytes are the artifact's own checksum
	}
}

func (r goldenRow) String() string {
	return fmt.Sprintf("{%q, %q, %d, %d, %d, %d, %d, %d, %#08x},",
		r.family, r.backend, r.size, r.nodes, r.leaves, r.ruleRefs, r.time, r.bytes, r.crc)
}

// TestGoldenTrees holds every tree builder to the recorded table. The
// 10k-rule cells and the trained ones are skipped in -short.
func TestGoldenTrees(t *testing.T) {
	for _, want := range goldenTable {
		if testing.Short() && (want.size > 1000 || want.backend == "neurocuts") {
			continue
		}
		got := goldenCell(t, want.family, want.backend, want.size)
		if got != want {
			t.Errorf("tree changed:\n got  %v\n want %v", got, want)
		}
	}
}
