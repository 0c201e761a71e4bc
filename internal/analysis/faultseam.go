package analysis

import (
	"go/ast"
	"go/types"
)

// Faultseam confines fault-injection plan construction to the FaultPlan
// seam. Failure plans enter a run only through cluster.CostModel.Faults,
// and the values that ride it — cluster.FaultPlan, cluster.Failure,
// cluster.RankFailure — are built only by the packages that own the
// seam: internal/cluster (the types and the fail-stop machinery),
// internal/resilience (FailAt and the restart bookkeeping) and
// internal/cliutil (the -faults flag parser). A
// driver or experiment that hand-rolls a plan literal bypasses
// Validate, the seeded-random sweep conventions, and the restart
// driver's retire-on-fire bookkeeping; one that fabricates a
// RankFailure forges the error the recovery contract keys on. The
// analyzer flags composite literals of the three types anywhere else,
// steering construction through the resilience constructors.
//
// The same seam owns recovery: there is one restart driver,
// resilience.RunWithRestarts, and the two bookkeeping steps that make a
// loop a restart loop — FaultPlan.Retire and Stats.RecordFailure — are
// called from nowhere else, so a second copy of the loop cannot grow
// back in a training driver unnoticed.
var Faultseam = &Analyzer{
	Name: "faultseam",
	Doc:  "confine FaultPlan/Failure/RankFailure construction to the fault seam (cluster, resilience, cliutil) and restart bookkeeping (Retire, RecordFailure) to resilience",
	Run:  runFaultseam,
}

// faultseamExempt lists the packages that own the seam.
var faultseamExempt = map[string]bool{
	"repro/internal/cluster":    true,
	"repro/internal/resilience": true,
	"repro/internal/cliutil":    true,
}

// faultseamTypes are the seam's value types, matched by name: the
// real ones live in repro/internal/cluster, and fixture stubs carry
// the same names.
var faultseamTypes = map[string]string{
	"FaultPlan":   "build plans with resilience.FailAt (or cliutil.ParseFaults for flag input)",
	"Failure":     "build plans with resilience.FailAt (or cliutil.ParseFaults for flag input)",
	"RankFailure": "RankFailure is produced by the cluster's fail-stop machinery only; synthesizing one forges the recovery contract's root-cause error",
}

// faultseamMethods are the restart driver's bookkeeping steps — method
// name to receiver type name, matched by name like faultseamTypes —
// which only the driver's package, internal/resilience, may call.
var faultseamMethods = map[string]string{"Retire": "FaultPlan", "RecordFailure": "Stats"}

func runFaultseam(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	path := pass.Pkg.Path()
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue // tests may build plans to probe the seam itself
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				name := namedTypeName(pass.TypesInfo.TypeOf(n))
				if hint, hit := faultseamTypes[name]; hit && !faultseamExempt[path] {
					pass.Reportf(n.Pos(), "fault-injection value %s constructed outside the FaultPlan seam: %s", name, hint)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || path == "repro/internal/resilience" {
					break
				}
				recv, hit := faultseamMethods[sel.Sel.Name]
				if m := pass.TypesInfo.Selections[sel]; hit && m != nil && namedTypeName(m.Recv()) == recv {
					pass.Reportf(n.Pos(), "restart bookkeeping %s.%s called outside the restart driver: recover through resilience.RunWithRestarts instead of a second restart loop",
						recv, sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

// namedTypeName returns the name of the named type t is, or points to
// ("" for anything else, including a nil t).
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
