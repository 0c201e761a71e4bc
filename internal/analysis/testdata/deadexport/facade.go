// Fixture: the module's root package, the public facade. An example's
// uses keep its names live.
package fixture

import "fixture/lib"

// Walk is used only by the example: live, because the facade declares it.
func Walk() int { return lib.ForFacade() }
