package analysis

import (
	"go/ast"
)

// Walltime forbids reading the wall clock in non-test code. Every run
// of the simulator must be a pure function of its config: simulated
// time lives on Rank clocks, and the perf gate treats any sim_sec
// drift as a correctness breach. A time.Now or time.Sleep smuggled
// into a charging path would make results machine- and load-dependent
// (and a Sleep additionally stalls the scheduler, whose segments wait
// for the commit turn in simulated-time order). The bench harness's
// wall-timing of real executions and CLI-facing code are the audited
// exceptions, each carrying a //gnnvet:allow walltime marker.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock time (time.Now/Since/Sleep/...) where simulated clocks rule",
	Run:  runWalltime,
}

// walltimeFuncs are the time-package functions that observe or depend
// on the wall clock. Pure-value helpers (time.Duration arithmetic,
// time.Unix construction, parsing) are fine.
var walltimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func runWalltime(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue // tests may time themselves
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn := funcObj(pass.TypesInfo, n.Sel)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				if walltimeFuncs[fn.Name()] {
					pass.Reportf(n.Pos(),
						"wall clock in simulated-time code: time.%s makes the run a function of the machine, not the config (simulated time lives on Rank clocks)",
						fn.Name())
				}
			case *ast.CallExpr:
				// Transitive: a helper whose summary says it reaches the
				// wall clock is as machine-dependent as time.Now itself.
				// An atom under a //gnnvet:allow seeds no fact, so an
				// audited exception does not taint its callers.
				if pass.Facts == nil {
					return true
				}
				fn := calleeFunc(pass.TypesInfo, n)
				if fn != nil && pass.Facts.Has(fn, FactWallClock) {
					pass.Reportf(n.Pos(),
						"call reaches the wall clock: %s → %s — the run becomes a function of the machine, not the config",
						shortKey(FuncKey(fn)), pass.Facts.Via(fn, FactWallClock))
				}
			}
			return true
		})
	}
	return nil
}
