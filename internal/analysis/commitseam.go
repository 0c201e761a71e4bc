package analysis

import (
	"go/ast"
	"go/types"
)

// CommitSeam keeps the scheduler's commit order whole. The
// discrete-event scheduler runs up to GOMAXPROCS rank segments at once
// and orders only their commit sections, which open with Rank.gate and
// run in event-key order; everything else a segment does must not
// depend on the order segments happen to run in. The rules:
//
//   - The calls that create events or consume shared simulated time —
//     sim.Task.Ready, sim.Sched.Spawn and (*contention).transact — are
//     made only inside the commit sections registered in
//     commitSections, and a section that opens itself calls Rank.gate
//     holding no mutex.
//   - Rank.gate is the one opener: it calls sim.Task.Gate, then flushes
//     the timeline's deferred queue sends. A Task.Gate anywhere else
//     skips that flush, and a send performed (Queue.commit, through
//     committer) anywhere but the flush commits out of program order.
//   - A sync.Mutex or sync.RWMutex (a struct field or a package-level
//     variable) guards either commit-section state, registered in
//     commitState, or state whose outcome does not depend on the order
//     segments take the lock; the second kind carries
//     //gnnvet:allow commitseam — <why the order cannot matter>.
//     Section-only state is locked nowhere but inside a section, after
//     its gate.
//
// The first two rules bind internal/cluster, the scheduler's one client
// in the simulator (a program may drive a bare scheduler of its own).
// Rank bodies reach nearly every package, so the mutex rule covers the
// whole module except the scheduler below the seam
// (internal/cluster/sim), whose own lock is what implements the order.
var CommitSeam = &Analyzer{
	Name: "commitseam",
	Doc:  "confine sim.Task.Ready, sim.Sched.Spawn, the contention ledger and queue commits to registered commit sections opened by Rank.gate, and make every mutex a registered commit section or an allow-marked order-insensitive one",
	Run:  runCommitSeam,
}

// commitSections registers every function allowed to ready a task,
// spawn a timeline or transact on the contention ledger. True marks a
// section that opens itself: it calls Rank.gate (Rank.gate itself,
// sim.Task.Gate), holding no lock. The others run inside a section named
// in their comment, before the scheduler starts, or in its drain hook,
// while no segment can.
var commitSections = map[parkKey]bool{
	gateOpener:                             true,
	{clusterPath, "Comm", "arrive"}:        true,
	{clusterPath, "Queue", "Recv"}:         true, // on an empty queue
	{clusterPath, "Rank", "ForkStream"}:    true, // its stream's exit gates before readying the joiner
	{clusterPath, "Forked", "Join"}:        true,
	{clusterPath, "Rank", "ChargeLink"}:    true,
	{clusterPath, "Queue", "commit"}:       false, // Rank.gate's flush
	{clusterPath, "rendezvous", "release"}: false, // arrive, poison
	{clusterPath, "Comm", "poison"}:        false, // arrive, abandon
	{clusterPath, "Cluster", "drain"}:      false, // the drain hook
	{clusterPath, "Comm", "abandon"}:       false, // drain
	// Its ledger transaction is the transform arrive runs for the last
	// arriver.
	{clusterPath, "Comm", "contendedFinish"}: false,
	{clusterPath, "Cluster", "spawn"}:        false, // Run, before the scheduler runs; ForkStream
}

// commitState registers the mutexes that guard commit-section state,
// keyed by (package, type or "" for a package-level variable, field or
// variable name). True marks section-only state: locked only inside a
// registered section, after an opening section's gate.
var commitState = map[parkKey]bool{
	{clusterPath, "Queue", "mu"}:      true,  // Recv (allow-marked fast path), commit
	{clusterPath, "Forked", "mu"}:     true,  // Join, the stream's exit
	{clusterPath, "rendezvous", "mu"}: false, // arrive, poison, abandon; a woken member reads its outcome
	{clusterPath, "contention", "mu"}: false, // transact; reset and stats run outside Run
	// The failures are filed order-free: noteFailure keeps the first
	// root per rank.
	{clusterPath, "Cluster", "mu"}: false,
	// Dup runs outside any section, but a clone is a function of its
	// key.
	{clusterPath, "Comm", "dupMu"}: false,
}

// orderingCalls are the calls confined to commitSections.
var orderingCalls = map[parkKey]bool{
	{simPath, "Task", "Ready"}:              true,
	{simPath, "Sched", "Ready"}:             true,
	{simPath, "Sched", "Spawn"}:             true,
	{clusterPath, "contention", "transact"}: true,
}

// The seam's opener, the scheduler gate below it, and the calls that
// perform a deferred queue send (confined to the opener's flush).
var (
	gateOpener = parkKey{clusterPath, "Rank", "gate"}
	taskGate   = parkKey{simPath, "Task", "Gate"}
	sendCommit = map[parkKey]bool{
		{clusterPath, "committer", "commit"}: true,
		{clusterPath, "Queue", "commit"}:     true,
	}
)

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

// checkSection reports ordering calls outside registered sections, a
// gate or send commit that bypasses Rank.gate's flush, section-only
// state locked outside its section, and a registered opening section
// that holds a lock across its gate or never gates.
func checkSection(pass *Pass, path string, d *ast.FuncDecl) {
	if d.Body == nil {
		return
	}
	key := funcKey(pass, path, d)
	opens, registered := commitSections[key]
	gated, flushed := false, false
	held := 0 // lexically outstanding locks
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if def, ok := n.(*ast.DeferStmt); ok {
			kind, _ := mutexCall(pass, def.Call)
			return kind != "Unlock" // a deferred unlock holds the lock to return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch kind, _ := mutexCall(pass, call); kind {
		case "Lock":
			held++
			if state, ok := lockedState(pass, call); ok && commitState[state] && (!registered || opens && !gated) {
				pass.Reportf(call.Pos(), "%s locks %s.%s outside a commit section: it is section-only state, touched in event-key order", d.Name.Name, state.recv, state.name)
			}
		case "Unlock":
			held--
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		pkg, recv := recvTypeName(fn)
		called := parkKey{pkg, recv, fn.Name()}
		switch {
		case called == taskGate && key != gateOpener && path == clusterPath:
			pass.Reportf(call.Pos(), "Task.Gate outside Rank.gate skips the flush of the timeline's deferred queue sends: open the section with Rank.gate")
		case sendCommit[called] && key != gateOpener:
			pass.Reportf(call.Pos(), "queue send committed outside Rank.gate's flush: a send commits at its timeline's next commit section, in program order")
		case sendCommit[called]:
			flushed = true
		}
		if called == taskGate || called == gateOpener {
			if opens && held > 0 && !gated {
				pass.Reportf(call.Pos(), "%s takes a lock before its gate: a segment must wait for its turn holding no lock", d.Name.Name)
			}
			gated = true
		}
		if orderingCalls[called] && !registered && path == clusterPath {
			pass.Reportf(call.Pos(), "%s.%s outside a registered commit section: it must run in event-key order; open a section with Rank.gate and register it in commitSections", recv, fn.Name())
		}
		return true
	})
	if opens && !gated {
		pass.Reportf(d.Name.Pos(), "commit section %s never calls Rank.gate", d.Name.Name)
	}
	if key == gateOpener && !flushed {
		pass.Reportf(d.Name.Pos(), "Rank.gate skips the flush: it must commit the timeline's deferred queue sends after Task.Gate")
	}
}

// lockedState names the mutex a Lock call takes the way commitState
// does: (package, owning struct type or "", field or variable name).
func lockedState(pass *Pass, call *ast.CallExpr) (parkKey, bool) {
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr) // mutexCall matched it
	var id *ast.Ident
	recv := ""
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
		if s, ok := pass.TypesInfo.Selections[x]; ok {
			t := s.Recv()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				recv = named.Obj().Name()
			}
		}
	default:
		return parkKey{}, false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return parkKey{}, false
	}
	return parkKey{obj.Pkg().Path(), recv, id.Name}, true
}

// checkMutexes reports mutex fields of the declared struct types, and
// package-level mutex variables, that are neither registered nor
// allow-marked.
func checkMutexes(pass *Pass, path string, d *ast.GenDecl) {
	report := func(id *ast.Ident, recv string) {
		obj := pass.TypesInfo.Defs[id]
		if _, registered := commitState[parkKey{path, recv, id.Name}]; obj == nil || !isMutex(obj.Type()) || registered {
			return
		}
		owner := id.Name
		if recv != "" {
			owner = recv + "." + id.Name
		}
		pass.Reportf(id.Pos(), "mutex %s is neither a registered commit section nor marked order-insensitive: segments run in parallel, so say why the order they take it in cannot change a result (//gnnvet:allow commitseam — <reason>) or register it in commitState", owner)
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
