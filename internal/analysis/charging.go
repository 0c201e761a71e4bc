package analysis

import (
	"go/ast"
	"go/token"
)

// Charging protects the single charging path PRs 3 and 4 fought for:
// inside internal/cluster, the α–β parameters (CostModel.Alpha/Beta)
// and the physical link bandwidths (Topology.*Bps, Oversub) may enter
// arithmetic only in collectives.go (chargeCollective and the cost
// constructors), contention.go (the fair-share ledger) and
// costmodel.go (the model's own helpers). Before PR 3 the repo had
// eight inlined α+β·bytes sites; every one was a place a future cost
// change could silently miss. This analyzer keeps them from growing
// back: any other file wanting a transfer time must call a charging
// helper, not reprice the wire itself.
var Charging = &Analyzer{
	Name: "charging",
	Doc:  "cost-parameter arithmetic only in collectives.go/contention.go/costmodel.go",
	Run:  runCharging,
}

const clusterPath = "repro/internal/cluster"

var chargingExemptFiles = map[string]bool{
	"collectives.go": true,
	"contention.go":  true,
	"costmodel.go":   true,
}

// chargingFields maps an owning type (in internal/cluster) to its
// protected cost-parameter fields.
var chargingFields = map[string]map[string]bool{
	"CostModel": {"Alpha": true, "Beta": true},
	"Topology":  {"Oversub": true},
}

func runCharging(pass *Pass) error {
	inCluster := pass.Pkg != nil && pass.Pkg.Path() == clusterPath
	WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Direct reads of protected fields only exist inside the
			// cluster package (the fields are unexported consumers of
			// exported params; other packages hold them by value too) —
			// the field-level rule stays scoped there.
			if !inCluster || pass.IsTestFile(n) || chargingExemptFiles[pass.Filename(n)] {
				return true
			}
			sel := n
			owner, fields := "", map[string]bool(nil)
			for name, fs := range chargingFields {
				if fs[sel.Sel.Name] {
					owner, fields = name, fs
					break
				}
			}
			if fields == nil {
				return true
			}
			tv, ok := pass.TypesInfo.Types[sel.X]
			if !ok || !namedIn(tv.Type, clusterPath, owner) {
				return true
			}
			if inArithmetic(stack) {
				pass.Reportf(sel.Pos(),
					"cost-parameter arithmetic outside the charging path: %s.%s may be priced only in collectives.go/contention.go/costmodel.go — call a charging helper instead of inlining α–β math",
					owner, sel.Sel.Name)
			}
		case *ast.CallExpr:
			// Transitive, module-wide: arithmetic on the result of a
			// function summarized as returning a raw cost parameter is
			// the same inlined α–β math, laundered through a call.
			if pass.Facts == nil || pass.IsTestFile(n) {
				return true
			}
			if inCluster && chargingExemptFiles[pass.Filename(n)] {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, n)
			if fn != nil && pass.Facts.Has(fn, FactCostAccessor) && inArithmetic(stack) {
				pass.Reportf(n.Pos(),
					"cost-parameter arithmetic laundered through %s (returns %s): pricing belongs in collectives.go/contention.go/costmodel.go — call a charging helper instead",
					shortKey(FuncKey(fn)), pass.Facts.Via(fn, FactCostAccessor))
			}
		}
		return true
	})
	return nil
}

// inArithmetic reports whether the innermost non-wrapper ancestor uses
// the node as an arithmetic operand: a +-*/ binary expression, an
// arithmetic compound assignment, or unary minus. Index and paren
// wrappers (Alpha[link]) are looked through; plain reads, copies and
// argument passing are not arithmetic.
func inArithmetic(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.IndexExpr:
			continue
		case *ast.BinaryExpr:
			switch p.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
				return true
			}
			return false
		case *ast.UnaryExpr:
			return p.Op == token.SUB
		case *ast.AssignStmt:
			switch p.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				return true
			}
			return false
		default:
			return false
		}
	}
	return false
}
