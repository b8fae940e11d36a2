package engine

import (
	"errors"
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
	eng, err := NewEngine("linear", set, Options{})
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
	if got := tabs.List(); len(got) != 2 || got[0].Name != "acl" || got[1].Name != "fw" {
		t.Fatalf("List() = %v", got)
	}

	// The default table can never be dropped, alone or not: a serving
	// manager never loses its table-0 target.
	if err := tabs.Drop("acl"); err == nil {
		t.Fatal("dropping the default table must fail")
	}
	if err := tabs.Drop("fw"); err != nil {
		t.Fatal(err)
	}
	if got := tabs.List(); len(got) != 1 || got[0].Name != "acl" {
		t.Fatalf("dropped table still listed: List() = %v", got)
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

// TestTablesConcurrentAdminAndLookup hammers lookups against concurrent
// create/drop to prove readers always observe a coherent table map
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
		if err := tabs.Drop("scratch"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// journaledTestEngine builds a linear engine over a fixed rule list that
// journals its updates to path. Built again over the same path, it replays
// them.
func journaledTestEngine(t *testing.T, path string) *Engine {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine("linear", classbench.Generate(fam, 40, 7), Options{CompactThreshold: 16, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTablesDropRacingUpdates: writers pinned to a journaling table keep
// inserting while another goroutine drops it. Drop closes the engine at
// once, so every update either was acknowledged — journaled before the
// close — or failed with ErrClosed. Reopening the rules with the journal
// replays every acknowledged ID; the dropped engine keeps answering lookups,
// and a later CloseAll leaves it as Drop left it. Run with -race.
func TestTablesDropRacingUpdates(t *testing.T) {
	tabs := NewTables()
	defer tabs.CloseAll()
	def, set := newTestEngine(t, "fw1", 30)
	if _, err := tabs.Create("default", def); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "acl.journal")
	tab, err := tabs.Create("acl", journaledTestEngine(t, jpath))
	if err != nil {
		t.Fatal(err)
	}
	eng := tab.Engine
	var trace []rule.Packet
	for _, e := range classbench.GenerateTrace(eng.Rules(), 300, 5) {
		trace = append(trace, e.Key)
	}

	var mu sync.Mutex
	var acked []int
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				res, err := eng.Insert(i%7, set.Rule((w+i)%set.Len()))
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("writer %d: update failed with %v, want ErrClosed", w, err)
					}
					return
				}
				mu.Lock()
				acked = append(acked, res.ID)
				mu.Unlock()
			}
		}(w)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 40 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writers acknowledged only %d updates in 10 s", n)
		}
	}
	if err := tabs.Drop("acl"); err != nil {
		t.Fatal(err)
	}
	if eng.UpdaterStats().JournalPath != "" {
		t.Fatal("Drop returned with the dropped engine still open")
	}
	wg.Wait()

	// The dropped engine still answers, as linear search over its last list.
	final := eng.Rules()
	version := eng.Version()
	out := make([]Result, len(trace))
	eng.ClassifyBatch(trace, out)
	for i, p := range trace {
		want, wok := final.Match(p)
		if out[i].OK != wok || out[i].Rule != want {
			t.Fatalf("dropped engine, packet %d: (%v, %v), linear search (%v, %v)", i, out[i].Rule, out[i].OK, want, wok)
		}
	}

	re := journaledTestEngine(t, jpath)
	defer re.Close()
	live := map[int]bool{}
	for _, r := range re.Rules().Rules() {
		live[r.ID] = true
	}
	for _, id := range acked {
		if !live[id] {
			t.Fatalf("acknowledged rule %d lost: not replayed from the journal", id)
		}
	}
	if re.Len() != final.Len() {
		t.Fatalf("replay serves %d rules, the dropped engine %d", re.Len(), final.Len())
	}

	tabs.CloseAll()
	if _, ok := tabs.Default(); ok || eng.Version() != version || eng.Len() != final.Len() {
		t.Fatal("CloseAll touched the dropped table")
	}
}

// TestTablesRefuseSharedJournal: a journal a live table's engine appends to
// cannot back a second table. CheckJournalFree names the journal and its
// table before a second engine opens the file, Create refuses an engine
// opened on it anyway, and every update the live table acknowledged, before
// and after the refusals, replays from the journal.
func TestTablesRefuseSharedJournal(t *testing.T) {
	tabs := NewTables()
	defer tabs.CloseAll()
	jpath := filepath.Join(t.TempDir(), "acl.journal")
	tab, err := tabs.Create("acl", journaledTestEngine(t, jpath))
	if err != nil {
		t.Fatal(err)
	}
	set := tab.Engine.Rules()
	var acked []int
	insert := func(n int) {
		for i := 0; i < n; i++ {
			res, err := tab.Engine.Insert(i, set.Rule(i))
			if err != nil {
				t.Fatal(err)
			}
			acked = append(acked, res.ID)
		}
	}
	insert(5)

	if err := tabs.CheckJournalFree(filepath.Join(t.TempDir(), "other.journal")); err != nil {
		t.Fatalf("an unused journal is reported held: %v", err)
	}
	err = tabs.CheckJournalFree(jpath)
	if err == nil || !strings.Contains(err.Error(), jpath) || !strings.Contains(err.Error(), `"acl"`) {
		t.Fatalf("CheckJournalFree(live journal) = %v, want an error naming %s and table \"acl\"", err, jpath)
	}
	second := journaledTestEngine(t, jpath)
	if _, err := tabs.Create("acl-copy", second); err == nil || !strings.Contains(err.Error(), `"acl"`) {
		t.Fatalf("Create over a held journal = %v, want an error naming table \"acl\"", err)
	}
	second.Close()
	insert(5)

	tabs.CloseAll()
	re := journaledTestEngine(t, jpath)
	defer re.Close()
	live := map[int]bool{}
	for _, r := range re.Rules().Rules() {
		live[r.ID] = true
	}
	for _, id := range acked {
		if !live[id] {
			t.Fatalf("acknowledged rule %d lost: not replayed from the journal", id)
		}
	}
	if got, want := re.Len(), set.Len()+len(acked); got != want {
		t.Fatalf("replay serves %d rules, want %d", got, want)
	}
}
