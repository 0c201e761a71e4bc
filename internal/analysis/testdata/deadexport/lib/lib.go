// Fixture: a library package. Its names count as used only when a
// non-test file — here cmd/tool, a program, or the root facade — uses
// them.
package lib

// ForMain is used only by a program: live.
func ForMain() int { return 1 }

// ForFacade is used only by the root facade: live.
func ForFacade() int { return 5 }

// OnlyExample is called only from examples/walk, which keeps alive the
// facade's names alone.
func OnlyExample() int { return 6 } // want `func OnlyExample has no non-test use`

// OnlyTested is called only from lib_test.go.
func OnlyTested() int { return 2 } // want `func OnlyTested has no non-test use`

// Oracle is test-only too, but audited.
//
//gnnvet:allow deadexport — fixture: the reference other packages' tests compare against
func Oracle() int { return 3 }

// countdown calls only itself: a use inside the declaration does not count.
func countdown(n int) int { // want `func countdown has no non-test use`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

const unused = 4 // want `const unused has no non-test use`

// Scale is read by the program's Area call below.
const Scale = 2.0

// Shape is the interface the program calls through.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

// Area is reached only through Shape: live.
func (s square) Area() float64 { return s.side * s.side * Scale }

// String is called by fmt: live.
func (s square) String() string { return "square" }

// Perimeter has no caller, even though square is live.
func (s square) Perimeter() float64 { return 4 * s.side } // want `method Perimeter has no non-test use`

// NewShape returns the square behind the interface.
func NewShape(side float64) Shape { return square{side} }

// Config shows each kind of field write.
type Config struct {
	Keyed    int     // a keyed literal sets it
	Assigned int     // an assignment sets it
	Pointed  int     // its address is taken
	Counter  Counter // a pointer method is called on it
	TestOnly int     // want `field Config\.TestOnly is written by no non-test code`
	// ByExample is set only by examples/walk's literal.
	ByExample int // want `field Config\.ByExample is written by no non-test code`
	//gnnvet:allow deadexport — fixture: an audited knob only tests set
	Audited int
	hidden  int // unexported fields are not checked
}

// Counter is a value with a pointer method.
type Counter struct{ N int }

// Inc increments the counter.
func (c *Counter) Inc() { c.N++ }

// Get reads every Config field.
func (c Config) Get() int {
	return c.Keyed + c.Assigned + c.Pointed + c.Counter.N + c.TestOnly + c.ByExample + c.Audited + c.hidden
}

type testOnlyType struct{} // want `type testOnlyType has no non-test use`
