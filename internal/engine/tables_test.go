package engine

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

func newTestEngine(t *testing.T, family string, size int) (*Engine, *rule.Set) {
	t.Helper()
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, size, 1)
	eng, err := NewEngine("linear", set, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, set
}

func TestTablesCreateGetDrop(t *testing.T) {
	tabs := NewTables()
	if _, ok := tabs.Default(); ok {
		t.Fatal("empty manager should have no default")
	}

	acl, _ := newTestEngine(t, "acl1", 50)
	fw, _ := newTestEngine(t, "fw1", 50)
	defer tabs.CloseAll()

	aclTab, err := tabs.Create("acl", acl)
	if err != nil {
		t.Fatal(err)
	}
	if aclTab.ID == 0 {
		t.Fatal("table IDs must start at 1 (0 is the wire default sentinel)")
	}
	fwTab, err := tabs.Create("fw", fw)
	if err != nil {
		t.Fatal(err)
	}
	if fwTab.ID == aclTab.ID {
		t.Fatal("table IDs must be unique")
	}
	if _, err := tabs.Create("acl", fw); err == nil {
		t.Fatal("duplicate create must fail")
	}

	// First created table is the default, reachable by name, ID and ID 0.
	if def, ok := tabs.Default(); !ok || def.Name != "acl" {
		t.Fatalf("default = %v, want acl", def)
	}
	if tab, ok := tabs.GetByID(0); !ok || tab.Name != "acl" {
		t.Fatal("ID 0 must resolve to the default table")
	}
	if tab, ok := tabs.GetByID(fwTab.ID); !ok || tab.Name != "fw" {
		t.Fatal("lookup by ID failed")
	}
	if got := tabs.Names(); len(got) != 2 || got[0] != "acl" || got[1] != "fw" {
		t.Fatalf("Names() = %v", got)
	}

	// The default table can never be dropped, alone or not: a serving
	// manager never loses its table-0 target.
	if err := tabs.Drop("acl"); err == nil {
		t.Fatal("dropping the default table must fail")
	}
	if err := tabs.Drop("fw"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tabs.Get("fw"); ok {
		t.Fatal("dropped table still resolvable")
	}
	if _, ok := tabs.GetByID(fwTab.ID); ok {
		t.Fatal("dropped table still resolvable by ID")
	}
	if tabs.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", tabs.Len())
	}
	if err := tabs.Drop("fw"); err == nil {
		t.Fatal("double drop must fail")
	}
	if err := tabs.Drop("acl"); err == nil {
		t.Fatal("dropping the last (default) table must fail")
	}
	if _, ok := tabs.Default(); !ok {
		t.Fatal("default lost")
	}

	// Table names are bounded by the wire protocol's one-byte name length.
	if _, err := tabs.Create(strings.Repeat("x", MaxTableNameLen+1), fw); err == nil {
		t.Fatal("over-long table name must be rejected")
	}
}

func TestTablesSwapKeepsIdentityAndRetiresOldEngine(t *testing.T) {
	tabs := NewTables()
	defer tabs.CloseAll()
	e1, _ := newTestEngine(t, "acl1", 40)
	e2, _ := newTestEngine(t, "acl2", 40)

	tab1, err := tabs.Create("acl", e1)
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := tabs.Swap("acl", e2)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.ID != tab1.ID {
		t.Fatalf("swap changed the wire ID: %d -> %d", tab1.ID, tab2.ID)
	}
	if got, _ := tabs.Get("acl"); got.Engine != e2 {
		t.Fatal("swap did not publish the new engine")
	}
	// The displaced engine must still serve lookups (it is retired, not
	// closed) so requests pinned to it can finish.
	out := make([]Result, 1)
	e1.ClassifyBatch([]rule.Packet{{}}, out)

	if def, _ := tabs.Default(); def.Engine != e2 {
		t.Fatal("swap of the default table did not re-point the default")
	}
	if _, err := tabs.Swap("nat", e1); err == nil {
		t.Fatal("swap of a missing table must fail")
	}
}

// TestTablesConcurrentAdminAndLookup hammers lookups against concurrent
// create/swap/drop to prove readers always observe a coherent table map
// (run with -race).
func TestTablesConcurrentAdminAndLookup(t *testing.T) {
	tabs := NewTables()
	defer tabs.CloseAll()
	base, set := newTestEngine(t, "acl1", 60)
	if _, err := tabs.Create("base", base); err != nil {
		t.Fatal(err)
	}
	trace := classbench.GenerateTrace(set, 200, 3)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tab, ok := tabs.GetByID(0)
				if !ok {
					t.Error("default table vanished")
					return
				}
				for _, e := range trace {
					tab.Engine.Classify(e.Key)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		eng, _ := newTestEngine(t, "acl2", 30)
		if _, err := tabs.Create("scratch", eng); err != nil {
			t.Fatal(err)
		}
		eng2, _ := newTestEngine(t, "fw1", 30)
		if _, err := tabs.Swap("scratch", eng2); err != nil {
			t.Fatal(err)
		}
		if err := tabs.Drop("scratch"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// journaledTestEngine builds an engine whose closure is observable: while
// open, UpdaterStats reports its journal path; Close tears the journal down
// and the path reads back empty.
func journaledTestEngine(t *testing.T, dir, name string) *Engine {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	set := classbench.Generate(fam, 40, 7)
	eng, err := NewEngine("linear", set, Options{
		Shards:           1,
		CompactThreshold: -1,
		JournalPath:      filepath.Join(dir, name+".journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func engineClosed(e *Engine) bool { return e.UpdaterStats().JournalPath == "" }

// TestTablesReaperLifecycle is the regression test for the reaper gap: only
// Swap and Drop used to reap, so a daemon whose churn after a swap was
// create-only pinned displaced engines forever. Every admin mutation must
// run the reaper.
func TestTablesReaperLifecycle(t *testing.T) {
	dir := t.TempDir()
	tabs := NewTables()
	defer tabs.CloseAll()
	now := time.Unix(1_700_000_000, 0)
	tabs.now = func() time.Time { return now }

	engA := journaledTestEngine(t, dir, "a")
	engB := journaledTestEngine(t, dir, "b")
	engB2 := journaledTestEngine(t, dir, "b2")
	if _, err := tabs.Create("acl", engA); err != nil {
		t.Fatal(err)
	}
	if _, err := tabs.Create("fw", engB); err != nil {
		t.Fatal(err)
	}
	if _, err := tabs.Swap("fw", engB2); err != nil {
		t.Fatal(err)
	}
	if got := tabs.RetiredLen(); got != 1 {
		t.Fatalf("RetiredLen after swap = %d, want 1", got)
	}

	// Within the grace the retiree stays open through any mutation.
	now = now.Add(retireGrace - time.Second)
	if _, err := tabs.Create("nat1", journaledTestEngine(t, dir, "n1")); err != nil {
		t.Fatal(err)
	}
	if engineClosed(engB) || tabs.RetiredLen() != 1 {
		t.Fatal("retiree reaped before its grace expired")
	}

	// Past the grace, a Create — the churn pattern that used to leak — must
	// close it.
	now = now.Add(2 * time.Second)
	if _, err := tabs.Create("nat2", journaledTestEngine(t, dir, "n2")); err != nil {
		t.Fatal(err)
	}
	if !engineClosed(engB) {
		t.Fatal("Create did not reap a retiree whose grace had expired")
	}
	if got := tabs.RetiredLen(); got != 0 {
		t.Fatalf("RetiredLen after reaping Create = %d, want 0", got)
	}

	// Drop then CloseAll: the dropped engine is closed exactly once by
	// CloseAll (the deferred one above runs again on an empty manager — both
	// calls and any direct re-Close must be no-ops, not double-closes).
	if err := tabs.Drop("fw"); err != nil {
		t.Fatal(err)
	}
	tabs.CloseAll()
	for _, e := range []*Engine{engA, engB2} {
		if !engineClosed(e) {
			t.Fatal("CloseAll left an engine open")
		}
		e.Close() // idempotent
	}
	tabs.CloseAll()
}
