// Fixture: a package whose name ends in "test" is test support and is
// not checked.
package libtest

// Helper has no caller at all.
func Helper() int { return 5 }
