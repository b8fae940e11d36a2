// Command deadexports is the dead-export check's fixture: it uses lib.Name,
// and lib.Counter's Count only through an interface literal.
package main

import (
	"fmt"

	"example.com/deadexports/internal/lib"
)

func main() {
	fmt.Println(lib.Name("x"))
	var v any = new(lib.Counter)
	if c, ok := v.(interface{ Count() int }); ok {
		fmt.Println(c.Count())
	}
}
