// Package lib holds one export of each kind the dead-export check judges.
package lib

import "fmt"

// Unused has no caller at all.
func Unused() {}

// Allowed has no caller either, but is on the fixture's allow-list.
func Allowed() {}

// Name's String method has no caller but implements fmt.Stringer.
type Name string

func (n Name) String() string { return fmt.Sprintf("name %q", string(n)) }

// OnlyTested is called from lib_test.go alone.
func OnlyTested() int { return 1 }

// Counter's Count method is called only through an interface literal.
type Counter struct{ n int }

func (c *Counter) Count() int { return c.n }
