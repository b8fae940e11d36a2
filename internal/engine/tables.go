package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Table is one named classification table: an Engine plus the identity the
// multi-table runtime serves it under. The wire protocol addresses tables by
// ID, humans and configs by Name. Table values are immutable once published.
type Table struct {
	// Name is the table's unique name within its Tables manager.
	Name string
	// ID is the table's stable wire identifier, assigned at Create (>= 1;
	// ID 0 is the wire protocol's "default table" sentinel and is never
	// assigned). It is never reused after Drop.
	ID uint32
	// Engine serves the table.
	Engine *Engine
}

// tableState is one immutable generation of the table map. Readers load it
// with a single atomic pointer load, so a lookup can never observe a
// half-applied create or drop.
type tableState struct {
	byName map[string]*Table
	byID   map[uint32]*Table
	// names is the sorted name list (computed once per mutation).
	names []string
	// def is the default table (the target of frames addressed to table
	// ID 0); nil only while the manager is empty.
	def *Table
}

// Tables manages a set of named, independently configured engines, so one
// daemon can serve many rule sets (ACL + firewall + NAT tables
// simultaneously). It is the daemon's one table model: a single-table
// daemon is a manager holding one table, "default". Create and Drop are
// atomic: they build a new immutable table map off-line and publish it with
// one pointer swap, so concurrent lookups always observe a coherent set and
// are never blocked.
//
// Drop closes the dropped engine as soon as the new map is published. A
// request that resolved the table before the drop keeps its engine: its
// lookups still answer, and its update either finished its journal append
// before the close or fails with ErrClosed, so no update is acknowledged
// that the closed journal did not record.
type Tables struct {
	mu     sync.Mutex
	state  atomic.Pointer[tableState]
	nextID uint32
}

// NewTables returns an empty table manager.
func NewTables() *Tables {
	t := &Tables{nextID: 1}
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
// already exists fails, and so does an engine whose journal a live table's
// engine already appends to (see CheckJournalFree).
func (t *Tables) Create(name string, eng *Engine) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: table name must not be empty")
	}
	if len(name) > MaxTableNameLen {
		return nil, fmt.Errorf("engine: table name exceeds %d bytes", MaxTableNameLen)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := t.cloneLocked()
	if _, dup := ns.byName[name]; dup {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	if err := ns.journalFree(eng.opts.JournalPath); err != nil {
		return nil, err
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

// CheckJournalFree returns an error naming the journal and the live table
// whose engine appends to it, or nil when no table holds the journal at
// path (or path is empty). Call it before opening an engine on path: two
// engines appending to one journal lose acknowledged updates at replay, and
// opening a journal truncates a torn tail, which on a live journal can be an
// append in flight.
func (t *Tables) CheckJournalFree(path string) error {
	return t.state.Load().journalFree(path)
}

// journalFree is CheckJournalFree over one generation of the table map.
func (st *tableState) journalFree(path string) error {
	if path == "" {
		return nil
	}
	for name, tab := range st.byName {
		if samePath(tab.Engine.opts.JournalPath, path) {
			return fmt.Errorf("engine: journal %s is in use by table %q", path, name)
		}
	}
	return nil
}

// Drop atomically removes the named table and closes its engine. Its wire
// ID is never reused. Dropping the default table always fails — it is the
// target of frames addressed to table 0, and a serving manager never loses
// its default.
func (t *Tables) Drop(name string) error {
	eng, err := t.unpublish(name)
	if err != nil {
		return err
	}
	// Not under t.mu: Close waits for a compaction in flight.
	eng.Close()
	return nil
}

// unpublish removes the named table from the map and returns its engine.
func (t *Tables) unpublish(name string) (*Engine, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := t.cloneLocked()
	old, ok := ns.byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", name)
	}
	if ns.def != nil && ns.def.ID == old.ID {
		return nil, fmt.Errorf("engine: table %q is the default table and cannot be dropped", name)
	}
	delete(ns.byName, name)
	delete(ns.byID, old.ID)
	t.publishLocked(ns)
	return old.Engine, nil
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

// CloseAll closes every table's engine and empties the manager. Call it
// only after the serving layer has drained (no update may be in flight),
// e.g. after Server.Shutdown returns.
func (t *Tables) CloseAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tab := range t.state.Load().byName {
		tab.Engine.Close()
	}
	t.publishLocked(&tableState{byName: map[string]*Table{}, byID: map[uint32]*Table{}})
}
