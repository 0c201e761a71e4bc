package analysis

import (
	"fmt"
	"go/token"
	"strings"
	"testing"
)

// loadCG builds the call graph over the testdata/callgraph fixture
// with a fresh address-taken set, the way RunModule does.
func loadCG(t *testing.T) (*Package, *CallGraph, addrTakenSet) {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := LoadFixture(fset, "testdata/callgraph", "repro/fixture")
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	taken := addrTakenSet{}
	return pkg, BuildCallGraph(pkg, taken), taken
}

func edgesTo(g *CallGraph, caller, callee string) []Edge {
	node := g.Node(caller)
	if node == nil {
		return nil
	}
	var out []Edge
	for _, e := range node.Edges {
		if e.Callee == callee {
			out = append(out, e)
		}
	}
	return out
}

func TestCallGraphDirectEdge(t *testing.T) {
	_, g, _ := loadCG(t)
	es := edgesTo(g, "repro/fixture.caller", "repro/fixture.leaf")
	if len(es) != 1 || es[0].Kind != EdgeDirect {
		t.Fatalf("caller -> leaf: got %+v, want one direct edge", es)
	}
}

func TestCallGraphMethodEdge(t *testing.T) {
	_, g, _ := loadCG(t)
	es := edgesTo(g, "repro/fixture.methodCall", "repro/fixture.T.M")
	if len(es) != 1 || es[0].Kind != EdgeMethod {
		t.Fatalf("methodCall -> T.M: got %+v, want one method edge", es)
	}
}

func TestCallGraphFuncValueEdge(t *testing.T) {
	_, g, taken := loadCG(t)
	// leaf appears in argument position inside takesAddress, so it is
	// address-taken under its receiver-less signature...
	found := false
	for _, key := range taken["func()"] {
		found = found || key == "repro/fixture.leaf"
	}
	if !found {
		t.Fatalf("leaf not in address-taken set: %v", taken)
	}
	// ...and the indirect call f() resolves conservatively to it.
	es := edgesTo(g, "repro/fixture.indirect", "repro/fixture.leaf")
	if len(es) != 1 || es[0].Kind != EdgeFuncValue {
		t.Fatalf("indirect -> leaf: got %+v, want one funcvalue edge", es)
	}
}

func TestCallGraphCycle(t *testing.T) {
	_, g, _ := loadCG(t)
	if es := edgesTo(g, "repro/fixture.tickA", "repro/fixture.tickB"); len(es) != 1 {
		t.Fatalf("tickA -> tickB: got %+v", es)
	}
	if es := edgesTo(g, "repro/fixture.tickB", "repro/fixture.tickA"); len(es) != 1 {
		t.Fatalf("tickB -> tickA: got %+v", es)
	}
}

func TestCallGraphKeysSorted(t *testing.T) {
	_, g, _ := loadCG(t)
	keys := g.Keys()
	if len(keys) == 0 {
		t.Fatal("no nodes")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not strictly sorted at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
}

// TestFactsCycleConverges: the tickA/tickB cycle must reach a fixpoint
// with the wall-clock fact on both functions, witness chains included.
func TestFactsCycleConverges(t *testing.T) {
	pkg, _, _ := loadCG(t)
	b := NewFactBase()
	g := BuildCallGraph(pkg, b.taken)
	b.AddPackage(pkg, nil, g)
	if ff := b.funcs["repro/fixture.tickB"]; ff == nil || !ff.has[FactWallClock] {
		t.Fatal("tickB missing wallclock (direct atom)")
	}
	if ff := b.funcs["repro/fixture.tickA"]; ff == nil || !ff.has[FactWallClock] {
		t.Fatal("tickA missing wallclock (one hop through the cycle)")
	}
	via := b.funcs["repro/fixture.tickA"].via[FactWallClock]
	if !strings.Contains(via, "time.Now") {
		t.Fatalf("tickA witness %q does not reach time.Now", via)
	}
}

// TestFactsRoundTrip: Export must reproduce itself through
// ImportFacts, and malformed inputs must be rejected with positions.
func TestFactsRoundTrip(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := LoadFixture(fset, "testdata/arenaescape", "repro/fixture")
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	b := NewFactBase()
	g := BuildCallGraph(pkg, b.taken)
	b.AddPackage(pkg, nil, g)

	exp := b.Export()
	if !strings.Contains(exp, "arena\trepro/fixture.epochArena\n") {
		t.Fatalf("export missing arena tag:\n%s", exp)
	}
	if !strings.Contains(exp, "repro/fixture.epochArena.scratch\tarenamem=") {
		t.Fatalf("export missing scratch arenamem fact:\n%s", exp)
	}
	b2, err := ImportFacts(exp)
	if err != nil {
		t.Fatalf("ImportFacts: %v", err)
	}
	if exp2 := b2.Export(); exp2 != exp {
		t.Fatalf("round trip drifted:\n-- first --\n%s\n-- second --\n%s", exp, exp2)
	}

	for _, bad := range []string{
		"bogus\tx",
		"arena",
		"func\tonly-a-key",
		"func\tk\tnope=v",
		"func\tk\twallclock",
	} {
		if _, err := ImportFacts(bad); err == nil {
			t.Errorf("ImportFacts(%q): want error, got nil", bad)
		}
	}
}

// ImportFacts parses an Export'd fact base. The address-taken registry
// is not serialized (it only matters during graph construction).
func ImportFacts(s string) (*FactBase, error) {
	b := NewFactBase()
	for ln, line := range strings.Split(s, "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		switch fields[0] {
		case "arena":
			if len(fields) != 2 || fields[1] == "" {
				return nil, fmt.Errorf("facts: line %d: malformed arena entry", ln+1)
			}
			b.arenaTypes[fields[1]] = true
		case "func":
			if len(fields) < 3 || fields[1] == "" {
				return nil, fmt.Errorf("facts: line %d: malformed func entry", ln+1)
			}
			for _, fv := range fields[2:] {
				name, via, ok := strings.Cut(fv, "=")
				if !ok {
					return nil, fmt.Errorf("facts: line %d: fact without witness", ln+1)
				}
				found := false
				for f := Fact(0); f < numFacts; f++ {
					if factNames[f] == name {
						b.set(fields[1], f, via)
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("facts: line %d: unknown fact %q", ln+1, name)
				}
			}
		default:
			return nil, fmt.Errorf("facts: line %d: unknown record %q", ln+1, fields[0])
		}
	}
	return b, nil
}
