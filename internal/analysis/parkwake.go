package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
)

// ParkWake keeps cluster-driven code on the scheduler's blocking
// primitives. A rank runs as a task of the discrete-event scheduler
// (internal/cluster/sim) and runs only when the scheduler resumes it,
// so any wait that does not park on the scheduler (Queue.Recv,
// Forked.Join, the collective rendezvous) hangs the whole simulation.
// Equally fatal: parking, or waiting at the commit gate, while holding a
// mutex — the task that would wake us, or whose turn comes first, may
// need that lock. Only the scheduler itself is exempt; the primitives
// built on sim.Task.Park are checked like everything above them.
var ParkWake = &Analyzer{
	Name: "parkwake",
	Doc:  "cluster-driven code must block through the scheduler's park/wake, never raw channels/WaitGroups, and never park holding a mutex",
	Run:  runParkWake,
}

// parkWakeScope is the set of packages that run on rank timelines.
// The scheduler itself (internal/cluster/sim) is the machinery below
// the seam and is out of scope.
var parkWakeScope = map[string]bool{
	"repro/internal/cluster":    true,
	"repro/internal/engine":     true,
	"repro/internal/pipeline":   true,
	"repro/internal/baseline":   true,
	"repro/internal/distsample": true,
}

// parkCalls names the functions that may park the calling task,
// keyed by (package path, receiver type name or "" for package-level,
// function name). Every key names a function its package declares
// outside its tests (TestParkCallsNameDeclaredFunctions).
type parkKey struct{ pkg, recv, name string }

var parkCalls = map[parkKey]bool{
	{clusterPath, "", "Broadcast"}:         true,
	{clusterPath, "", "AllGather"}:         true,
	{clusterPath, "", "Gather"}:            true,
	{clusterPath, "", "Scatter"}:           true,
	{clusterPath, "", "AllToAllv"}:         true,
	{clusterPath, "", "AllToAllvSparse"}:   true,
	{clusterPath, "", "AllReduceSum"}:      true,
	{clusterPath, "", "AllReduceSumApply"}: true,
	{clusterPath, "", "AllReduceGeneric"}:  true,
	{clusterPath, "Queue", "Recv"}:         true,
	{clusterPath, "Forked", "Join"}:        true,
	{clusterPath, "Rank", "gate"}:          true,
	{clusterPath + "/sim", "Task", "Park"}: true,
	{clusterPath + "/sim", "Task", "Gate"}: true,
}

func runParkWake(pass *Pass) error {
	if pass.Pkg == nil || !parkWakeScope[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		// Every function body is scanned as its own scope (its lock set
		// is independent); checkFuncBody skips nested literals, and this
		// walk reaches them, so each statement is scanned exactly once,
		// in its innermost enclosing function.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFuncBody(pass, n.Body)
				}
			case *ast.FuncLit:
				checkFuncBody(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkFuncBody reports blocking violations and the mutex-across-park
// pattern within one function scope. Nested function literals are
// separate scopes (their bodies run later, under their own locks) and
// are skipped here — the outer Inspect visits them on its own.
func checkFuncBody(pass *Pass, body *ast.BlockStmt) {
	// held tracks, per mutex expression, the lexically outstanding
	// Lock depth; deferHeld marks mutexes with a deferred Unlock
	// (held from that point to function return). This is a lexical
	// approximation of the dynamic lock set — branches are not
	// modeled — which is exactly sharp enough for lint: a park call
	// textually between Lock and Unlock deserves a second look even
	// when some path avoids it.
	held := map[string]int{}
	deferHeld := map[string]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if kind, key := mutexCall(pass, n.Call); kind == "Unlock" {
				deferHeld[key] = true
				return false
			}
			return true
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"raw goroutine spawn in cluster-driven code: this goroutine is invisible to the scheduler; fork concurrent work with Rank.ForkStream")
			return true
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"naked channel send bypasses the scheduler's park/wake and hangs the simulation; use a cluster.Queue")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(),
					"naked channel receive bypasses the scheduler's park/wake and hangs the simulation; use a cluster.Queue")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(),
				"select blocks outside the scheduler and hangs the simulation; use the scheduler's park/wake")
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(),
						"ranging over a channel blocks outside the scheduler and hangs the simulation; use a cluster.Queue")
				}
			}
		case *ast.CallExpr:
			kind, key := mutexCall(pass, n)
			switch kind {
			case "Lock":
				held[key]++
			case "Unlock":
				if held[key] > 0 {
					held[key]--
				}
			}
			if fn := calleeFunc(pass.TypesInfo, n); fn != nil {
				if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
					pass.Reportf(n.Pos(),
						"time.Sleep blocks the OS thread, not the simulated rank: it stalls the scheduler and charges no simulated time")
				}
				if isWaitCall(fn) {
					pass.Reportf(n.Pos(),
						"%s.Wait blocks outside the scheduler and hangs the simulation; join forked work with Forked.Join", waitRecvName(fn))
				}
				// Transitive: a helper summarized as blocking on a naked
				// channel rendezvous hangs the simulation from here just
				// as surely as an inline receive would.
				if pass.Facts != nil && pass.Facts.Has(fn, FactBlocksNative) {
					pass.Reportf(n.Pos(),
						"call blocks outside the scheduler: %s → %s — a native block the scheduler cannot see hangs the simulation; route it through the park/wake seam",
						shortKey(FuncKey(fn)), pass.Facts.Via(fn, FactBlocksNative))
				}
				pkg, recv := recvTypeName(fn)
				direct := parkCalls[parkKey{pkg, recv, fn.Name()}]
				// Parking itself is the design; parking while a mutex is
				// lexically held is the deadlock. The facts layer extends
				// the check one or more calls deep: a helper that reaches
				// Barrier parks this rank just the same.
				if direct || (pass.Facts != nil && pass.Facts.Has(fn, FactMayPark)) {
					what := fn.Name()
					if !direct {
						what = shortKey(FuncKey(fn)) + " (→ " + pass.Facts.Via(fn, FactMayPark) + ")"
					}
					for _, key := range sortedKeys(held) {
						if held[key] > 0 {
							pass.Reportf(n.Pos(),
								"%s may park the rank while %s is locked: the task that would wake it can need that mutex first — release before blocking", what, key)
						}
					}
					for _, key := range sortedKeys(deferHeld) {
						if deferHeld[key] {
							pass.Reportf(n.Pos(),
								"%s may park the rank while %s is locked (deferred Unlock holds it to return) — release before blocking", what, key)
						}
					}
				}
			}
		}
		return true
	})
}

// sortedKeys gives the lock-report loops a deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mutexCall classifies a call as Lock/Unlock (incl. RLock/RUnlock) on
// a sync.Mutex or sync.RWMutex and returns the receiver's source text
// as the tracking key.
func mutexCall(pass *Pass, call *ast.CallExpr) (kind, key string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "Unlock" && name != "RLock" && name != "RUnlock" {
		return "", ""
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return "", ""
	}
	if !namedIn(tv.Type, "sync", "Mutex") && !namedIn(tv.Type, "sync", "RWMutex") {
		return "", ""
	}
	var buf bytes.Buffer
	printer.Fprint(&buf, pass.Fset, sel.X)
	if name == "RLock" {
		name = "Lock"
	}
	if name == "RUnlock" {
		name = "Unlock"
	}
	return name, buf.String()
}

// isWaitCall reports whether the call is sync.WaitGroup.Wait or
// sync.Cond.Wait.
func isWaitCall(fn *types.Func) bool {
	if fn.Name() != "Wait" {
		return false
	}
	pkg, recv := recvTypeName(fn)
	return pkg == "sync" && (recv == "WaitGroup" || recv == "Cond")
}

func waitRecvName(fn *types.Func) string {
	_, recv := recvTypeName(fn)
	return "sync." + recv
}
