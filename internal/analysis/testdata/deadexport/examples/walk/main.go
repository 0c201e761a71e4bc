// Fixture: an example. It walks through the facade and is not a root:
// only its uses of the root package's names count, and its field writes
// count for nothing.
package main

import (
	"fmt"

	"fixture"
	"fixture/lib"
)

func main() {
	c := lib.Config{ByExample: 1}
	fmt.Println(fixture.Walk(), lib.OnlyExample(), c.Get())
}
