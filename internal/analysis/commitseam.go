package analysis

import (
	"go/ast"
	"go/types"
)

// CommitSeam keeps the DES backend's commit order whole. The
// discrete-event scheduler runs up to GOMAXPROCS rank segments at once
// and orders only their commit sections, which open with waiter.gate
// and run in event-key order; everything else a segment does must not
// depend on the order segments happen to run in. Two rules follow:
//
//   - The calls that create events or consume shared simulated time —
//     waiter.ready, scheduler.spawn and (*contention).transact — are
//     made only inside the commit sections registered in
//     commitSections, and a section that opens itself calls waiter.gate
//     before it takes any mutex.
//   - A sync.Mutex or sync.RWMutex (a struct field or a package-level
//     variable) guards either commit-section state, registered in
//     commitState, or state whose outcome does not depend on the order
//     segments take the lock; the second kind carries
//     //gnnvet:allow commitseam — <why the order cannot matter>.
//
// Rank bodies reach nearly every package, so the mutex rule covers the
// whole module except the scheduler below the seam
// (internal/cluster/sim), whose own lock is what implements the order.
var CommitSeam = &Analyzer{
	Name: "commitseam",
	Doc:  "confine waiter.ready, scheduler.spawn and the contention ledger to registered commit sections, and make every mutex a registered commit section or an allow-marked order-insensitive one",
	Run:  runCommitSeam,
}

// commitSections registers every function allowed to ready a waiter,
// spawn a timeline or transact on the contention ledger. True marks a
// section that opens itself: it calls waiter.gate, before any lock.
// The others run inside a section named in their comment, or before
// the scheduler starts.
var commitSections = map[parkKey]bool{
	{clusterPath, "Comm", "arrive"}:         true,
	{clusterPath, "Queue", "Send"}:          true,
	{clusterPath, "Queue", "Recv"}:          true,
	{clusterPath, "Rank", "ForkStream"}:     true, // its stream's exit gates before readying the joiner
	{clusterPath, "Forked", "Join"}:         true,
	{clusterPath, "Rank", "ChargeLink"}:     true,
	{clusterPath, "Cluster", "markDone"}:    true,
	{clusterPath, "rendezvous", "release"}:  false, // arrive, poison
	{clusterPath, "Comm", "poison"}:         false, // arrive, checkAbandoned
	{clusterPath, "Comm", "checkAbandoned"}: false, // markDone
	// Its ledger transaction is the transform arrive runs for the last
	// arriver.
	{clusterPath, "Comm", "contendedFinish"}: false,
	{clusterPath, "Cluster", "Run"}:          false, // spawns the rank timelines before wait
}

// commitState registers the mutexes that guard commit-section state,
// keyed by (package, type or "" for a package-level variable, field or
// variable name).
var commitState = map[parkKey]bool{
	{clusterPath, "rendezvous", "mu"}: true, // arrive, poison
	{clusterPath, "Queue", "mu"}:      true, // Send, Recv
	{clusterPath, "Forked", "mu"}:     true, // Join, the stream's exit
	{clusterPath, "contention", "mu"}: true, // transact; reset and stats run outside Run
	// done (markDone, arrive); the failures and communicator lists are
	// filed order-free (noteFailure keeps the first root per rank,
	// register keeps each rank's list sorted).
	{clusterPath, "Cluster", "mu"}:    true,
	{clusterPath, "Comm", "driverMu"}: true, // arrive; reset by Run
	// Dup runs outside any section, but a clone is a function of its
	// key and register files it in canonical order.
	{clusterPath, "Comm", "dupMu"}: true,
}

// orderingCalls are the calls confined to commitSections.
var orderingCalls = map[parkKey]bool{
	{clusterPath, "waiter", "ready"}:        true,
	{clusterPath, "scheduler", "spawn"}:     true,
	{clusterPath, "contention", "transact"}: true,
}

const simPath = clusterPath + "/sim"

func runCommitSeam(pass *Pass) error {
	if pass.Pkg == nil || pass.Pkg.Path() == simPath {
		return nil
	}
	path := pass.Pkg.Path()
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkSection(pass, path, d)
			case *ast.GenDecl:
				checkMutexes(pass, path, d)
			}
		}
	}
	return nil
}

// funcKey names a declared function the way the registries do.
func funcKey(pass *Pass, path string, d *ast.FuncDecl) parkKey {
	k := parkKey{pkg: path, name: d.Name.Name}
	if fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func); ok {
		_, k.recv = recvTypeName(fn)
	}
	return k
}

// checkSection reports ordering calls outside registered sections, and
// a registered opening section that takes a lock before its gate or
// never gates.
func checkSection(pass *Pass, path string, d *ast.FuncDecl) {
	if d.Body == nil {
		return
	}
	key := funcKey(pass, path, d)
	opens, registered := commitSections[key]
	gated, locked := false, false
	ast.Inspect(d.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, _ := mutexCall(pass, call); kind == "Lock" || kind == "RLock" {
			locked = true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		pkg, recv := recvTypeName(fn)
		called := parkKey{pkg, recv, fn.Name()}
		if called == (parkKey{clusterPath, "waiter", "gate"}) {
			if opens && locked && !gated {
				pass.Reportf(call.Pos(), "%s takes a lock before its gate: a segment must wait for its turn holding no lock", d.Name.Name)
			}
			gated = true
		}
		if orderingCalls[called] && !registered {
			pass.Reportf(call.Pos(), "%s.%s outside a registered commit section: under the DES backend it must run in event-key order; open a section with waiter.gate and register it in commitSections", recv, fn.Name())
		}
		return true
	})
	if opens && !gated {
		pass.Reportf(d.Name.Pos(), "commit section %s never calls waiter.gate", d.Name.Name)
	}
}

// checkMutexes reports mutex fields of the declared struct types, and
// package-level mutex variables, that are neither registered nor
// allow-marked.
func checkMutexes(pass *Pass, path string, d *ast.GenDecl) {
	report := func(id *ast.Ident, recv string) {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil || !isMutex(obj.Type()) || commitState[parkKey{path, recv, id.Name}] {
			return
		}
		owner := id.Name
		if recv != "" {
			owner = recv + "." + id.Name
		}
		pass.Reportf(id.Pos(), "mutex %s is neither a registered commit section nor marked order-insensitive: segments run in parallel under the DES backend, so say why the order they take it in cannot change a result (//gnnvet:allow commitseam — <reason>) or register it in commitState", owner)
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.ValueSpec:
			for _, id := range s.Names {
				report(id, "")
			}
		case *ast.TypeSpec:
			st, ok := s.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					report(id, s.Name.Name)
				}
				if len(field.Names) == 0 {
					if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isMutex(tv.Type) {
						pass.Reportf(field.Pos(), "embedded mutex in %s: name the field so commitseam can register or allow-mark it", s.Name.Name)
					}
				}
			}
		}
	}
}

func isMutex(t types.Type) bool {
	return namedIn(t, "sync", "Mutex") || namedIn(t, "sync", "RWMutex")
}
