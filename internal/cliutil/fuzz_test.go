package cliutil

import (
	"strings"
	"testing"
)

// FuzzParseFaults pins the -faults parser: arbitrary flag strings must
// parse or error, never panic, and any accepted plan must be valid
// (positive finite times, non-negative ranks) and round-trip through
// the canonical String form.
func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{"", "default", "1@0.5", "1@0.5,3@1.25",
		"0@1e-9", " 2 @ 0.25 ", "1", "@", "1@", "1@0", "1@-1", "1@NaN",
		"1@Inf", "-1@0.5", "1@0.5,", "1@@2", "\x00", "1@0.5;2@1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParseFaults(s)
		if err != nil {
			return
		}
		if plan == nil {
			if trimmed := strings.TrimSpace(s); trimmed != "" && trimmed != "default" {
				t.Fatalf("ParseFaults(%q) returned a nil plan for a non-default spelling", s)
			}
			return
		}
		if verr := plan.Validate(0); verr != nil {
			t.Fatalf("ParseFaults(%q) accepted an invalid plan: %v", s, verr)
		}
		// The canonical form must re-parse to the same plan.
		again, err := ParseFaults(plan.String())
		if err != nil {
			t.Fatalf("ParseFaults(%q): canonical form %q does not re-parse: %v", s, plan.String(), err)
		}
		if again.String() != plan.String() {
			t.Fatalf("ParseFaults(%q): canonical form is not a fixed point: %q -> %q", s, plan.String(), again.String())
		}
	})
}
