// Fixture: the program. Its own names are never findings; its uses keep
// library names live.
package main

import (
	"fmt"

	"fixture/lib"
)

func unusedInMain() {}

func main() {
	c := lib.Config{Keyed: 1}
	c.Assigned = 2
	p := &c.Pointed
	*p = 3
	c.Counter.Inc()
	fmt.Println(lib.ForMain(), lib.NewShape(1).Area(), c.Get())
}
