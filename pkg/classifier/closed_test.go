package classifier

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestUpdateLosingCloseRace: an update that passed the handle's closed
// check just before Close reaches an engine that is already closed. Closing
// only the engine puts the handle in that state; Insert, Delete and Load
// must then fail with ErrClosed like any update after Close.
func TestUpdateLosingCloseRace(t *testing.T) {
	rules, err := GenerateRules("acl1", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(rules, WithBackend("linear"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.eng.Close()
	if _, err := c.Insert(0, NewWildcardRule(0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Insert: err = %v, want ErrClosed", err)
	}
	if _, err := c.Delete(rules.Rule(0).ID); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete: err = %v, want ErrClosed", err)
	}
	if _, err := c.Load(filepath.Join(t.TempDir(), "a.ncaf")); !errors.Is(err, ErrClosed) {
		t.Errorf("Load: err = %v, want ErrClosed", err)
	}
}
