package cluster

import (
	"testing"
)

// Native Go fuzz targets for the CLI-facing parsers shared by the four
// binaries: arbitrary flag strings must parse or error, never panic,
// and anything accepted must validate.

func FuzzParseTopology(f *testing.F) {
	for _, s := range []string{"ideal", "none", "", "perlmutter", "oversub",
		"oversubscribed", " Perlmutter ", "fat-tree", "oversub:8", "4", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		topo, err := ParseTopology(s)
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("ParseTopology(%q) accepted an invalid topology: %v", s, err)
		}
	})
}

func FuzzParseCollectives(f *testing.F) {
	seeds := []struct{ ar, aa string }{
		{"default", "default"}, {"flat", "pairwise"}, {"ring", "flat"},
		{"hier", "bruck"}, {"", ""}, {"RING", "Default"}, {"tree", "tree"},
		{"pairwise", "ring"}, {"x", "y"}, {"\xff", "flat"},
	}
	for _, s := range seeds {
		f.Add(s.ar, s.aa)
	}
	f.Fuzz(func(t *testing.T, allreduce, alltoall string) {
		tbl, err := ParseCollectives(allreduce, alltoall)
		if err != nil {
			return
		}
		if err := tbl.Validate(); err != nil {
			t.Fatalf("ParseCollectives(%q, %q) accepted an invalid table: %v", allreduce, alltoall, err)
		}
	})
}
