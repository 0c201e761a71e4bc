package lib

import "testing"

// Uses from test files do not keep a name live.
func TestLib(t *testing.T) {
	_ = OnlyTested() + Oracle() + unused
	_ = Config{TestOnly: 1, Audited: 1}.Get()
	_ = testOnlyType{}
	_ = square{}.Perimeter()
}
