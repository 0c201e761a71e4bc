package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaEscape enforces the lifetime contract of the epoch-persistent
// arenas (PR 8): buffers handed out by a //gnnvet:arena type —
// distsample's stageArena, sparse's Scratch, and anything tagged later
// — alias storage that the arena rewrites on its next use, under
// reuse-safety arguments that hold only within the epoch's rendezvous
// structure. Storing such a buffer into a struct field, a package
// variable, or a closure that outlives the epoch is a use-after-reuse
// bug the race detector cannot see (the rewrite is same-goroutine) and
// the goldens only catch if the corruption changes a result.
//
// The analyzer runs an assignment-escape dataflow over the facts
// layer: an expression is arena-backed if it selects a
// reference-carrying field of an arena type, calls a function whose
// summary says it returns arena memory (FactArenaMem — so helpers in
// other files and packages are seen through), or derives from a local
// already so tainted. Flagged stores are those whose destination
// outlives the frame: package-level variables, fields reached through
// a pointer receiver or parameter of a non-arena type, and closures
// capturing tainted locals stored to either. Stores into the arena
// itself, into tainted locals (interior pointers), and value copies of
// basic data are clean; so is returning arena memory — the function
// then carries FactArenaMem and its callers are checked instead.
//
// Arenas themselves outlive a run only through the shared free list
// (freelist.List), which hands a set back only after its run is over.
// A package-level variable of any other type that can hold an arena —
// an ad-hoc pool, a cached set, a stashed arena — is a finding: it
// would keep arenas across runs without that release discipline.
var ArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc:  "arena-backed buffers (//gnnvet:arena types) must not be stored where they outlive the epoch, and arenas outlive a run only on the shared free list",
	Run:  runArenaEscape,
}

// freeListPath is the package of the one sanctioned process-level pool.
const freeListPath = "repro/internal/freelist"

func runArenaEscape(pass *Pass) error {
	if pass.Facts == nil {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue // tests may stash arena buffers to probe reuse
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					checkArenaEscapes(pass, d)
				}
			case *ast.GenDecl:
				checkArenaPools(pass, d)
			}
		}
	}
	return nil
}

// checkArenaPools flags package-level variables whose type can hold an
// arena, other than the shared free list.
func checkArenaPools(pass *Pass, gd *ast.GenDecl) {
	if gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		for _, name := range spec.(*ast.ValueSpec).Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil || !isPackageLevel(obj) || namedIn(obj.Type(), freeListPath, "List") {
				continue
			}
			if arena := heldArena(pass.Facts, obj.Type(), map[types.Type]bool{}); arena != "" {
				pass.Reportf(name.Pos(),
					"package-level %s holds %s arenas outside the shared free list: a run's arenas outlive it only on a freelist.List, given back once the run is over",
					name.Name, arena)
			}
		}
	}
}

// heldArena returns the name of an arena type t can hold — itself, or
// through pointers, containers and struct fields — or "".
func heldArena(facts *FactBase, t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if facts.IsArenaType(t) {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		return t.(*types.Named).Obj().Name()
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return heldArena(facts, u.Elem(), seen)
	case *types.Slice:
		return heldArena(facts, u.Elem(), seen)
	case *types.Array:
		return heldArena(facts, u.Elem(), seen)
	case *types.Chan:
		return heldArena(facts, u.Elem(), seen)
	case *types.Map:
		if a := heldArena(facts, u.Key(), seen); a != "" {
			return a
		}
		return heldArena(facts, u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if a := heldArena(facts, u.Field(i).Type(), seen); a != "" {
				return a
			}
		}
	}
	return ""
}

func checkArenaEscapes(pass *Pass, fd *ast.FuncDecl) {
	tw := newTaintWalk(&Package{Path: "", Fset: pass.Fset, Info: pass.TypesInfo}, pass.Facts)
	params := paramObjects(pass.TypesInfo, fd)
	tw.walk(fd.Body, nil, func(as *ast.AssignStmt, lhs, rhs ast.Expr, rhsTainted bool) {
		if !rhsTainted {
			// A closure can smuggle taint without its own expression
			// being tainted.
			if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
				checkCaptureEscape(pass, tw, params, as, lhs, lit)
			}
			return
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := identObj(pass.TypesInfo, id); obj != nil && isPackageLevel(obj) {
				pass.Reportf(as.Pos(),
					"arena-backed memory stored into package-level %s: the buffer is rewritten at the arena's next use — copy it, or keep it within the epoch%s",
					id.Name, taintOrigin(pass, rhs))
			}
			return // locals were already tainted by the walker
		}
		reportOutlivingStore(pass, tw, params, as, lhs, rhs)
	})
}

// reportOutlivingStore classifies a field/index store of arena memory
// by the root of its destination chain.
func reportOutlivingStore(pass *Pass, tw *taintWalk, params map[types.Object]bool, as *ast.AssignStmt, lhs, rhs ast.Expr) {
	root, viaArena := storeRoot(pass, lhs)
	if viaArena || root == nil {
		return // the arena managing its own storage, or unresolvable
	}
	obj := identObj(pass.TypesInfo, root)
	if obj == nil {
		return
	}
	switch {
	case isPackageLevel(obj):
		pass.Reportf(as.Pos(),
			"arena-backed memory stored into package-level %s: the buffer is rewritten at the arena's next use — copy it, or keep it within the epoch%s",
			root.Name, taintOrigin(pass, rhs))
	case params[obj] && !tw.vals[obj]:
		if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
			return // a value copy's fields die with the frame
		}
		pass.Reportf(as.Pos(),
			"arena-backed memory stored into a field of %s, which the caller owns beyond this epoch: the buffer is rewritten at the arena's next use — copy it before storing%s",
			root.Name, taintOrigin(pass, rhs))
	default:
		// A local struct absorbing arena refs: not an escape yet, but
		// the local now carries them (returning it is covered by
		// FactArenaMem; storing it is covered by the rules above).
		tw.vals[obj] = true
	}
}

// checkCaptureEscape flags a closure that captures arena-tainted
// locals being stored somewhere long-lived.
func checkCaptureEscape(pass *Pass, tw *taintWalk, params map[types.Object]bool, as *ast.AssignStmt, lhs ast.Expr, lit *ast.FuncLit) {
	longLived := false
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		obj := identObj(pass.TypesInfo, id)
		longLived = obj != nil && isPackageLevel(obj)
	} else if root, viaArena := storeRoot(pass, lhs); root != nil && !viaArena {
		obj := identObj(pass.TypesInfo, root)
		longLived = obj != nil && (isPackageLevel(obj) || params[obj])
	}
	if !longLived {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := identObj(pass.TypesInfo, id); obj != nil && tw.vals[obj] {
			pass.Reportf(as.Pos(),
				"closure capturing arena-backed %s escapes the epoch: the capture still points at storage the arena rewrites on its next use — copy %s first",
				id.Name, id.Name)
			return false
		}
		return true
	})
}

// storeRoot walks a destination chain (x.f[i].g = ...) to its root
// identifier. viaArena reports that some base along the chain is an
// arena type or a tainted interior pointer — stores there are the
// arena's own bookkeeping.
func storeRoot(pass *Pass, lhs ast.Expr) (root *ast.Ident, viaArena bool) {
	e := lhs
	for {
		if tv, ok := pass.TypesInfo.Types[e]; ok && pass.Facts.IsArenaType(tv.Type) {
			return nil, true
		}
		switch x := e.(type) {
		case *ast.Ident:
			return x, false
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// taintOrigin appends the witness chain when the stored value is a
// direct call to a summarized function.
func taintOrigin(pass *Pass, rhs ast.Expr) string {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || !pass.Facts.Has(fn, FactArenaMem) {
		return ""
	}
	return " (" + shortKey(FuncKey(fn)) + " " + pass.Facts.Via(fn, FactArenaMem) + ")"
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// paramObjects collects the receiver, parameters and named results of
// a declaration — the objects whose pointees the caller owns.
func paramObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	objs := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					objs[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	addFields(fd.Type.Results)
	return objs
}

// --- the shared arena taint dataflow ---

// taintWalk tracks, through one function body in lexical order, which
// local objects hold arena-backed memory. It is shared by the
// arenaescape analyzer (escape checks) and the facts layer
// (FactArenaMem seeding via return statements).
type taintWalk struct {
	pkg  *Package
	base *FactBase
	vals map[types.Object]bool
}

func newTaintWalk(pkg *Package, base *FactBase) *taintWalk {
	return &taintWalk{pkg: pkg, base: base, vals: map[types.Object]bool{}}
}

// walk traverses the body, updating taint at assignments and range
// clauses. onReturn (optional) fires for the body's own return
// statements, after taint up to that point is applied; onAssign
// (optional) fires for every assignment pair with the RHS verdict.
// A single lexical pass approximates loop-carried flow — sharp enough
// for lint, where the idiomatic escape is textually after the taint.
func (t *taintWalk) walk(body *ast.BlockStmt, onReturn func(*ast.ReturnStmt), onAssign func(as *ast.AssignStmt, lhs, rhs ast.Expr, rhsTainted bool)) {
	outer := map[*ast.ReturnStmt]bool{}
	for _, r := range outerReturns(body) {
		outer[r] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			t.assign(n, onAssign)
		case *ast.RangeStmt:
			if t.tainted(n.X) {
				if id, ok := n.Value.(*ast.Ident); ok {
					if obj := identObj(t.pkg.Info, id); obj != nil && refCarrying(obj.Type()) {
						t.vals[obj] = true
					}
				}
			}
		case *ast.ReturnStmt:
			if onReturn != nil && outer[n] {
				onReturn(n)
			}
		}
		return true
	})
}

// assign applies one assignment: 1:1 pairs, or a many-from-one call
// where every LHS inherits the call's verdict.
func (t *taintWalk) assign(as *ast.AssignStmt, onAssign func(*ast.AssignStmt, ast.Expr, ast.Expr, bool)) {
	pair := func(lhs, rhs ast.Expr, tainted bool) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := identObj(t.pkg.Info, id); obj != nil && !isPackageLevel(obj) {
				t.vals[obj] = tainted
			}
		}
		if onAssign != nil {
			onAssign(as, lhs, rhs, tainted)
		}
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			pair(as.Lhs[i], as.Rhs[i], t.tainted(as.Rhs[i]))
		}
		return
	}
	if len(as.Rhs) == 1 {
		tainted := t.tainted(as.Rhs[0])
		for _, lhs := range as.Lhs {
			pair(lhs, as.Rhs[0], tainted)
		}
	}
}

// tainted reports whether e evaluates to memory aliasing an arena.
// Value copies of reference-free data are never tainted.
func (t *taintWalk) tainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if tv, ok := t.pkg.Info.Types[e]; ok && tv.Type != nil && !refCarrying(tv.Type) {
		return false
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(t.pkg.Info, x)
		return obj != nil && t.vals[obj]
	case *ast.SelectorExpr:
		if tv, ok := t.pkg.Info.Types[x.X]; ok && t.base.IsArenaType(tv.Type) {
			return true
		}
		return t.tainted(x.X)
	case *ast.IndexExpr:
		return t.tainted(x.X)
	case *ast.SliceExpr:
		return t.tainted(x.X)
	case *ast.StarExpr:
		return t.tainted(x.X)
	case *ast.UnaryExpr:
		return t.tainted(x.X)
	case *ast.TypeAssertExpr:
		return t.tainted(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t.tainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return t.taintedCall(x)
	}
	return false
}

func (t *taintWalk) taintedCall(call *ast.CallExpr) bool {
	// append: the result aliases the first argument's backing; a
	// non-basic element argument is stored by reference. An ellipsis
	// spread of basic elements copies values — safe.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := t.pkg.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() != "append" {
				return false
			}
			if len(call.Args) > 0 && t.tainted(call.Args[0]) {
				return true
			}
			for i, arg := range call.Args[1:] {
				if !t.tainted(arg) {
					continue
				}
				at := t.pkg.Info.TypeOf(arg)
				if call.Ellipsis.IsValid() && i == len(call.Args)-2 {
					if sl, ok := at.Underlying().(*types.Slice); ok && !refCarrying(sl.Elem()) {
						continue
					}
				}
				return true
			}
			return false
		}
	}
	// Conversion: taint follows the operand.
	if tv, ok := t.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return t.tainted(call.Args[0])
	}
	fn := calleeFunc(t.pkg.Info, call)
	return fn != nil && t.base.Has(fn, FactArenaMem)
}

// refCarrying reports whether values of t can alias other memory:
// pointers, slices, maps, channels, interfaces, funcs, and aggregates
// containing any of those. Pure value types (numbers, bools, strings,
// structs of them) cannot leak an arena.
func refCarrying(t types.Type) bool {
	return refCarryingSeen(t, map[types.Type]bool{})
}

func refCarryingSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Array:
		return refCarryingSeen(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refCarryingSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	}
	return true // unknown: assume it can alias
}
