package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Table is one named classification table: an Engine plus the identity the
// multi-table runtime serves it under. The wire protocol addresses tables by
// ID (a small integer that stays stable across Swap), humans and configs by
// Name. Table values are immutable once published; Swap publishes a new
// value under the same name and ID.
type Table struct {
	// Name is the table's unique name within its Tables manager.
	Name string
	// ID is the table's stable wire identifier, assigned at Create (>= 1;
	// ID 0 is the wire protocol's "default table" sentinel and is never
	// assigned). It survives Swap and is never reused after Drop.
	ID uint32
	// Engine serves the table.
	Engine *Engine
}

// tableState is one immutable generation of the table map. Readers load it
// with a single atomic pointer load, so a lookup can never observe a
// half-applied create/swap/drop.
type tableState struct {
	byName map[string]*Table
	byID   map[uint32]*Table
	// names is the sorted name list (computed once per mutation).
	names []string
	// def is the default table (the target of frames addressed to table
	// ID 0); nil only while the manager is empty.
	def *Table
}

// Tables manages a set of named, independently configured engines so one
// daemon can serve many rule sets (ACL + firewall + NAT tables
// simultaneously). Admin operations — Create, Swap, Drop — are
// atomic: they build a new immutable table map off-line and publish it with
// one pointer swap, so concurrent lookups always observe a coherent set and
// are never blocked.
//
// Engines displaced by Swap or Drop are not closed immediately: an in-flight
// batch pinned to the old engine must be allowed to finish. They are parked
// on a retired list and closed either by CloseAll (run after the serving
// layer has drained, e.g. after Server.Shutdown returns) or by the reaper:
// each admin operation closes retirees older than retireGrace, so a
// long-running daemon whose tables are repeatedly created, swapped and
// dropped over the wire does not accumulate goroutines, journal fds and
// classifier memory without bound.
type Tables struct {
	mu      sync.Mutex
	state   atomic.Pointer[tableState]
	nextID  uint32
	retired []retiredEngine
	// now is the reaper's clock; tests inject a fake one so grace expiry is
	// deterministic. Set once at construction (NewTables).
	now func() time.Time
}

// retiredEngine is one displaced engine awaiting closure.
type retiredEngine struct {
	eng *Engine
	at  time.Time
}

// retireGrace is how long a displaced engine stays open after Swap/Drop
// before the reaper may close it. Any request that can still reach a
// retired engine resolved it before the swap was published, and the serving
// layer bounds a request's lifetime (body read and response write deadlines,
// 30s by default) to far below this, so closing after the grace cannot cut
// a live lookup.
const retireGrace = 5 * time.Minute

// reapRetiredLocked closes retirees older than retireGrace. Caller holds
// t.mu.
func (t *Tables) reapRetiredLocked(now time.Time) {
	kept := t.retired[:0]
	for _, r := range t.retired {
		if now.Sub(r.at) >= retireGrace {
			r.eng.Close()
		} else {
			kept = append(kept, r)
		}
	}
	t.retired = kept
}

// NewTables returns an empty table manager.
func NewTables() *Tables {
	t := &Tables{nextID: 1, now: time.Now}
	t.state.Store(&tableState{byName: map[string]*Table{}, byID: map[uint32]*Table{}})
	return t
}

// clone copies the current state's maps so a mutation can be prepared
// off-line. Caller holds t.mu.
func (t *Tables) cloneLocked() *tableState {
	cur := t.state.Load()
	ns := &tableState{
		byName: make(map[string]*Table, len(cur.byName)+1),
		byID:   make(map[uint32]*Table, len(cur.byID)+1),
		def:    cur.def,
	}
	for k, v := range cur.byName {
		ns.byName[k] = v
	}
	for k, v := range cur.byID {
		ns.byID[k] = v
	}
	return ns
}

// publishLocked recomputes the sorted name list and publishes the new state.
// Caller holds t.mu.
func (t *Tables) publishLocked(ns *tableState) {
	ns.names = make([]string, 0, len(ns.byName))
	for name := range ns.byName {
		ns.names = append(ns.names, name)
	}
	sort.Strings(ns.names)
	t.state.Store(ns)
}

// MaxTableNameLen bounds table names: the v2 wire protocol's table list
// encodes name lengths in one byte.
const MaxTableNameLen = 255

// Create adds a new table serving eng under name and returns it. The first
// table created becomes the default and stays it. Creating a name that
// already exists fails; use Swap to replace a live table's engine.
func (t *Tables) Create(name string, eng *Engine) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: table name must not be empty")
	}
	if len(name) > MaxTableNameLen {
		return nil, fmt.Errorf("engine: table name exceeds %d bytes", MaxTableNameLen)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Every admin mutation reaps: a daemon whose churn is create-only after
	// the last Swap/Drop must still close the engines those displaced, or
	// their compactor goroutines, journal fds and classifier memory stay
	// pinned for the daemon's lifetime.
	t.reapRetiredLocked(t.now())
	ns := t.cloneLocked()
	if _, dup := ns.byName[name]; dup {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	tab := &Table{Name: name, ID: t.nextID, Engine: eng}
	t.nextID++
	ns.byName[name] = tab
	ns.byID[tab.ID] = tab
	if ns.def == nil {
		ns.def = tab
	}
	t.publishLocked(ns)
	return tab, nil
}

// Swap atomically replaces the engine serving the named table, keeping the
// table's name and wire ID. The displaced engine is retired (kept open
// until the reaper's grace expires, or CloseAll) so requests pinned to it
// can finish. It returns the new Table value.
func (t *Tables) Swap(name string, eng *Engine) (*Table, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.reapRetiredLocked(now)
	ns := t.cloneLocked()
	old, ok := ns.byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", name)
	}
	tab := &Table{Name: name, ID: old.ID, Engine: eng}
	ns.byName[name] = tab
	ns.byID[tab.ID] = tab
	if ns.def != nil && ns.def.ID == tab.ID {
		ns.def = tab
	}
	t.publishLocked(ns)
	t.retired = append(t.retired, retiredEngine{eng: old.Engine, at: now})
	return tab, nil
}

// Drop atomically removes the named table. Its wire ID is never reused, and
// its engine is retired (kept open until the reaper's grace expires, or
// CloseAll) so in-flight requests can finish. Dropping the default table
// always fails — it is the target of frames addressed to table 0, and a
// serving manager never loses its default.
func (t *Tables) Drop(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.reapRetiredLocked(now)
	ns := t.cloneLocked()
	old, ok := ns.byName[name]
	if !ok {
		return fmt.Errorf("engine: table %q does not exist", name)
	}
	if ns.def != nil && ns.def.ID == old.ID {
		return fmt.Errorf("engine: table %q is the default table and cannot be dropped", name)
	}
	delete(ns.byName, name)
	delete(ns.byID, old.ID)
	t.publishLocked(ns)
	t.retired = append(t.retired, retiredEngine{eng: old.Engine, at: now})
	return nil
}

// Get returns the named table.
func (t *Tables) Get(name string) (*Table, bool) {
	tab, ok := t.state.Load().byName[name]
	return tab, ok
}

// GetByID returns the table with the given wire ID. ID 0 resolves to the
// default table.
func (t *Tables) GetByID(id uint32) (*Table, bool) {
	st := t.state.Load()
	if id == 0 {
		if st.def == nil {
			return nil, false
		}
		return st.def, true
	}
	tab, ok := st.byID[id]
	return tab, ok
}

// Default returns the default table, or ok=false while the manager is empty.
func (t *Tables) Default() (*Table, bool) {
	tab := t.state.Load().def
	return tab, tab != nil
}

// Names returns the table names, sorted. The returned slice is immutable.
func (t *Tables) Names() []string { return t.state.Load().names }

// List returns the tables sorted by name.
func (t *Tables) List() []*Table {
	st := t.state.Load()
	out := make([]*Table, 0, len(st.names))
	for _, name := range st.names {
		out = append(out, st.byName[name])
	}
	return out
}

// Len returns the number of live tables.
func (t *Tables) Len() int { return len(t.state.Load().byName) }

// RetiredLen returns the number of displaced engines still awaiting the
// reaper's grace. Exposed for the admin plane's metrics — a value that only
// grows means retirees are not being reaped.
func (t *Tables) RetiredLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.retired)
}

// CloseAll closes every live and retired engine. Call it only after the
// serving layer has drained (no lookup may be in flight), e.g. after
// Server.Shutdown returns; an engine's batch workers must not be serving
// when it is closed.
func (t *Tables) CloseAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tab := range t.state.Load().byName {
		tab.Engine.Close()
	}
	for _, r := range t.retired {
		r.eng.Close()
	}
	t.retired = nil
	t.publishLocked(&tableState{byName: map[string]*Table{}, byID: map[uint32]*Table{}})
}
