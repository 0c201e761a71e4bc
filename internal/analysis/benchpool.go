package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Benchpool confines goroutines, channels and WaitGroups to one audited
// fan-out seam per package, listed in fanoutScopes. In internal/bench
// the seam is the sweep worker pool (pool.go): an experiment that
// spawns its own goroutines re-derives — usually wrongly — the
// deterministic result ordering, per-cell panic isolation and
// worker bound runCells already gives. In internal/dense it is
// ParallelRows (matrix.go), the module's one kernel fan-out. The sparse
// and sampling kernels (internal/sparse, internal/core) have no seam:
// they run on the calling rank's goroutine, because inside a rank body
// the other ranks already hold the cores and nested fan-out does not
// pay. The two row folds are where kernels stripe, over row ranges
// through ParallelRows: the sum all-reduce's (internal/cluster) and the
// 1.5D row fold (internal/distsample's foldStages, which runs the sparse
// merge and the node-wise draw on each stripe), because every rank of
// their communicator is parked while they run. Packages outside the
// table are not checked.
var Benchpool = &Analyzer{
	Name: "benchpool",
	Doc:  "confine goroutines, channels and WaitGroups to each listed package's one fan-out seam (bench: pool.go, dense: matrix.go, sparse and core: none)",
	Run:  runBenchpool,
}

// fanoutScope is one package's concurrency rule: the one file allowed
// to fan out (none when empty), how findings name that seam, and where
// the fan-out belongs instead.
type fanoutScope struct {
	seam  string
	where string
	hint  string
}

const benchPath = "repro/internal/bench"

var fanoutScopes = map[string]fanoutScope{
	benchPath: {"pool.go", "the pool seam",
		"run sweep cells through runCells (pool.go), which already gives deterministic ordering, panic isolation and a worker bound"},
	"repro/internal/dense": {"matrix.go", "the ParallelRows seam",
		"stripe kernels through ParallelRows (matrix.go), behind Serial's work threshold"},
	"repro/internal/sparse": {"", "dense.ParallelRows",
		"sparse kernels run serially on the calling rank's goroutine"},
	"repro/internal/core": {"", "dense.ParallelRows",
		"sampling kernels run serially on the calling rank's goroutine"},
}

func runBenchpool(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	scope, ok := fanoutScopes[pass.Pkg.Path()]
	if !ok {
		return nil
	}
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s outside %s: %s", what, scope.where, scope.hint)
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue // tests may orchestrate concurrency to probe the seam
		}
		if scope.seam != "" && pass.Filename(f) == scope.seam {
			continue // the one audited concurrency seam
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Pos(), "goroutine")
			case *ast.SelectStmt:
				report(n.Pos(), "select")
			case *ast.SendStmt:
				report(n.Pos(), "channel send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n.Pos(), "channel receive")
				}
			case *ast.ChanType:
				report(n.Pos(), "channel type")
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						report(n.Pos(), "range over a channel")
					}
				}
			case *ast.SelectorExpr:
				if tn, ok := pass.TypesInfo.Uses[n.Sel].(*types.TypeName); ok && namedIn(tn.Type(), "sync", "WaitGroup") {
					report(n.Pos(), "sync.WaitGroup")
				}
			}
			return true
		})
	}
	return nil
}
