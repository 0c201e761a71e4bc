package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The facts layer.
//
// A fact is a per-function summary exported by the analysis framework
// and consumed by analyzers in any package: "this function reaches the
// wall clock", "this function may park the calling task", "this
// function returns arena-backed memory". Facts are what turn the
// per-function analyzers into interprocedural ones — wrapping a
// violation in a helper no longer hides it, because the helper's
// summary carries the violation to every call site.
//
// Facts are computed once per module, package by package in dependency
// order (a package's callees in other packages are summarized before
// it), with a fixpoint iteration inside each package so in-package
// call cycles converge. Suppression markers participate: an atom on a
// //gnnvet:allow'd line seeds no fact, so an audited exception does
// not taint its callers — the marker is the audit.
//
// Each fact carries a witness chain ("cluster.Queue.Recv → time.Now")
// so a transitive finding tells the reader the path, not just the
// verdict.

// Fact enumerates the per-function summaries the suite exchanges.
type Fact uint8

const (
	// FactWallClock: calls time.Now/Since/Sleep/... directly or
	// transitively (outside test files and allowed lines).
	FactWallClock Fact = iota
	// FactMayPark: may park the calling rank's task — calls a
	// collective, Queue.Send/Recv, Forked.Join or sim.Task.Park,
	// directly or transitively.
	FactMayPark
	// FactBlocksNative: blocks on a naked channel rendezvous (send,
	// receive, select, range-over-channel) or sync.Cond.Wait outside
	// the park/wake seam, directly or transitively.
	FactBlocksNative
	// FactCostAccessor: returns a raw cost parameter
	// (CostModel.Alpha/Beta, Topology bandwidths) unchanged —
	// arithmetic on its result is laundered charging-path arithmetic.
	FactCostAccessor
	// FactArenaMem: returns memory backed by an epoch-persistent arena
	// (a //gnnvet:arena type) — the result dies at the next reuse of
	// the arena and must not be stored anywhere that outlives it.
	FactArenaMem
	numFacts
)

var factNames = [numFacts]string{
	"wallclock", "maypark", "blocksnative", "costaccessor", "arenamem",
}

func (f Fact) String() string { return factNames[f] }

type funcFacts struct {
	has [numFacts]bool
	via [numFacts]string
}

// FactBase holds every summarized function in the module, keyed by
// FuncKey, plus the module's arena-tagged types and address-taken
// function registry.
type FactBase struct {
	funcs      map[string]*funcFacts
	arenaTypes map[string]bool // "pkg/path.TypeName"
	taken      addrTakenSet
}

// NewFactBase returns an empty fact base.
func NewFactBase() *FactBase {
	return &FactBase{
		funcs:      map[string]*funcFacts{},
		arenaTypes: map[string]bool{},
		taken:      addrTakenSet{},
	}
}

// Has reports whether fn carries the fact.
func (b *FactBase) Has(fn *types.Func, f Fact) bool {
	if fn == nil {
		return false
	}
	ff := b.funcs[FuncKey(fn)]
	return ff != nil && ff.has[f]
}

// Via returns the fact's witness chain for fn ("Queue.Recv →
// chan receive (queue.go:12)"), or "".
func (b *FactBase) Via(fn *types.Func, f Fact) string {
	if fn == nil {
		return ""
	}
	ff := b.funcs[FuncKey(fn)]
	if ff == nil {
		return ""
	}
	return ff.via[f]
}

// HasKey is Has by FuncKey, for callers holding graph edges.
func (b *FactBase) HasKey(key string, f Fact) bool {
	ff := b.funcs[key]
	return ff != nil && ff.has[f]
}

// IsArenaType reports whether t (after pointer indirection) is a
// //gnnvet:arena-tagged named type.
func (b *FactBase) IsArenaType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return b.arenaTypes[obj.Pkg().Path()+"."+obj.Name()]
}

func (b *FactBase) facts(key string) *funcFacts {
	ff := b.funcs[key]
	if ff == nil {
		ff = &funcFacts{}
		b.funcs[key] = ff
	}
	return ff
}

// set records a fact with its witness, returning true on change.
// The first witness wins — later, longer paths don't churn reports.
func (b *FactBase) set(key string, f Fact, via string) bool {
	ff := b.facts(key)
	if ff.has[f] {
		return false
	}
	ff.has[f] = true
	if len(via) > 160 {
		via = via[:160] + "…"
	}
	ff.via[f] = via
	return true
}

// AddPackage summarizes one package into the base: arena type tags,
// atomic facts from function bodies (respecting the package's allow
// markers), and a fixpoint propagation over the package's call graph.
// Packages must be added in dependency order.
func (b *FactBase) AddPackage(pkg *Package, allow *allowIndex, g *CallGraph) {
	b.scanArenaTypes(pkg)

	decls := map[string]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := pkg.Info.Defs[fd.Name].(*types.Func); fn != nil {
				decls[FuncKey(fn)] = fd
			}
		}
	}

	// Atomic seeds: one pass, before propagation.
	for _, key := range g.Keys() {
		if fd := decls[key]; fd != nil && !isTestFile(pkg.Fset, fd) {
			b.seedAtoms(pkg, allow, key, fd)
		}
	}

	// Fixpoint: edge propagation plus the return-shape facts
	// (costaccessor, arenamem), which re-examine return statements as
	// their callees gain facts. In-package cycles converge here;
	// cross-package cycles cannot exist (imports form a DAG).
	for changed := true; changed; {
		changed = false
		for _, key := range g.Keys() {
			node := g.Node(key)
			for _, e := range node.Edges {
				cf := b.funcs[e.Callee]
				if cf == nil {
					continue
				}
				for _, f := range [...]Fact{FactWallClock, FactMayPark, FactBlocksNative} {
					if !cf.has[f] {
						continue
					}
					// A call site under the fact's own //gnnvet:allow is
					// audited like an allowed atom: the taint stops there
					// instead of spreading to this function's callers.
					if c := factAllowCheck(f); c != "" && allow != nil && allow.allowed(c, pkg.Fset, e.Pos) {
						continue
					}
					if b.set(key, f, shortKey(e.Callee)+" → "+cf.via[f]) {
						changed = true
					}
				}
			}
			fd := decls[key]
			if fd == nil || isTestFile(pkg.Fset, fd) {
				continue
			}
			if via, ok := b.costAccessorReturn(pkg, fd); ok && b.set(key, FactCostAccessor, via) {
				changed = true
			}
			if via, ok := b.arenaMemReturn(pkg, fd); ok && b.set(key, FactArenaMem, via) {
				changed = true
			}
		}
	}
}

// factAllowCheck maps a violation-carrying fact to the check whose
// allow marker audits it; facts that are context (maypark — parking is
// legal, only parking under a lock is not) propagate unconditionally.
func factAllowCheck(f Fact) string {
	switch f {
	case FactWallClock:
		return Walltime.Name
	case FactBlocksNative:
		return ParkWake.Name
	}
	return ""
}

func isTestFile(fset *token.FileSet, n ast.Node) bool {
	return strings.HasSuffix(fset.Position(n.Pos()).Filename, "_test.go")
}

// scanArenaTypes records every type declaration carrying a
// //gnnvet:arena directive (on the decl's or the spec's doc comment,
// or a trailing line comment).
func (b *FactBase) scanArenaTypes(pkg *Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declTag := hasArenaDirective(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if declTag || hasArenaDirective(ts.Doc) || hasArenaDirective(ts.Comment) {
					b.arenaTypes[pkg.Path+"."+ts.Name.Name] = true
				}
			}
		}
	}
}

func hasArenaDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "gnnvet:arena" || strings.HasPrefix(text, "gnnvet:arena ") {
			return true
		}
	}
	return false
}

// seedAtoms records the directly-observable facts of one function
// body: wall-clock calls, park calls, and naked channel blocking.
// Function literals inside the body are attributed to the declaration.
func (b *FactBase) seedAtoms(pkg *Package, allow *allowIndex, key string, fd *ast.FuncDecl) {
	filename := baseName(pkg.Fset.Position(fd.Pos()).Filename)
	nativeExempt := blocksNativeExempt(pkg.Path, filename)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pkg.Info, n)
			if fn == nil {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "time" && walltimeFuncs[fn.Name()] {
				if allow == nil || !allow.allowed(Walltime.Name, pkg.Fset, n.Pos()) {
					b.set(key, FactWallClock, "time."+fn.Name())
				}
			}
			p, recv := recvTypeName(fn)
			if parkCalls[parkKey{p, recv, fn.Name()}] {
				name := fn.Name()
				if recv != "" {
					name = recv + "." + name
				}
				b.set(key, FactMayPark, name)
			}
			if !nativeExempt && isCondWait(fn) {
				if allow == nil || !allow.allowed(ParkWake.Name, pkg.Fset, n.Pos()) {
					b.set(key, FactBlocksNative, atomAt(pkg.Fset, "sync.Cond.Wait", n.Pos()))
				}
			}
		case *ast.SendStmt:
			b.seedNative(pkg, allow, key, "channel send", n.Pos(), nativeExempt)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				b.seedNative(pkg, allow, key, "channel receive", n.Pos(), nativeExempt)
			}
		case *ast.SelectStmt:
			b.seedNative(pkg, allow, key, "select", n.Pos(), nativeExempt)
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					b.seedNative(pkg, allow, key, "range over channel", n.Pos(), nativeExempt)
				}
			}
		}
		return true
	})
}

func (b *FactBase) seedNative(pkg *Package, allow *allowIndex, key, what string, pos token.Pos, exempt bool) {
	if exempt {
		return
	}
	if allow != nil && allow.allowed(ParkWake.Name, pkg.Fset, pos) {
		return
	}
	b.set(key, FactBlocksNative, atomAt(pkg.Fset, what, pos))
}

func atomAt(fset *token.FileSet, what string, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s (%s:%d)", what, baseName(p.Filename), p.Line)
}

func baseName(full string) string {
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}

// blocksNativeExempt: the layers below the park/wake seam legitimately
// use channels — the seam files in internal/cluster, the discrete-event
// scheduler, and the bench worker pool.
func blocksNativeExempt(pkgPath, filename string) bool {
	switch pkgPath {
	case clusterPath:
		return parkWakeExemptFiles[filename]
	case clusterPath + "/sim":
		return true
	case benchPath:
		return filename == fanoutScopes[benchPath].seam
	}
	return false
}

// isCondWait reports sync.Cond.Wait (sync.WaitGroup.Wait is NOT a
// blocksnative atom: compute fan-out below the simulation —
// dense.ParallelRows, the bench pool — joins plain worker goroutines
// with a WaitGroup, which completes without scheduler help).
func isCondWait(fn *types.Func) bool {
	if fn.Name() != "Wait" {
		return false
	}
	pkg, recv := recvTypeName(fn)
	return pkg == "sync" && recv == "Cond"
}

// costAccessorReturn reports whether fd returns a raw cost parameter:
// a return whose expression is (through parens and indexing) a
// protected CostModel/Topology field selector, or a call to a function
// already known to be a cost accessor.
func (b *FactBase) costAccessorReturn(pkg *Package, fd *ast.FuncDecl) (string, bool) {
	for _, ret := range outerReturns(fd.Body) {
		for _, res := range ret.Results {
			e := unwrapExpr(res)
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if owner, ok := costParamSelector(pkg.Info, sel); ok {
					return owner + "." + sel.Sel.Name, true
				}
			}
			if call, ok := e.(*ast.CallExpr); ok {
				if fn := calleeFunc(pkg.Info, call); fn != nil && b.Has(fn, FactCostAccessor) {
					return shortKey(FuncKey(fn)) + " → " + b.Via(fn, FactCostAccessor), true
				}
			}
		}
	}
	return "", false
}

// arenaMemReturn reports whether fd returns arena-backed memory: a
// return whose expression is tainted under the arena dataflow of
// arenaescape.go (selectors on //gnnvet:arena types, calls to
// FactArenaMem functions, and locals derived from either).
func (b *FactBase) arenaMemReturn(pkg *Package, fd *ast.FuncDecl) (string, bool) {
	tw := newTaintWalk(pkg, b)
	via, found := "", false
	tw.walk(fd.Body, func(ret *ast.ReturnStmt) {
		if found {
			return
		}
		for _, res := range ret.Results {
			if tw.tainted(res) {
				via, found = atomAt(pkg.Fset, "returns arena-backed memory", ret.Pos()), true
				return
			}
		}
	}, nil)
	return via, found
}

// costParamSelector reports whether sel reads a protected cost
// parameter (CostModel.Alpha/Beta, Topology bandwidths) and which type
// owns it — shared by the charging analyzer and the accessor fact.
func costParamSelector(info *types.Info, sel *ast.SelectorExpr) (owner string, ok bool) {
	for name, fs := range chargingFields {
		if fs[sel.Sel.Name] {
			if tv, found := info.Types[sel.X]; found && namedIn(tv.Type, clusterPath, name) {
				return name, true
			}
		}
	}
	return "", false
}

// unwrapExpr strips parens and index wrappers: (m.Alpha), alpha[i].
func unwrapExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return e
		}
	}
}

// outerReturns collects the return statements belonging to the body
// itself, excluding those inside nested function literals (a
// closure's return is not the function's).
func outerReturns(body *ast.BlockStmt) []*ast.ReturnStmt {
	var rets []*ast.ReturnStmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			rets = append(rets, n)
		}
		return true
	}
	ast.Inspect(body, walk)
	return rets
}

// Export serializes the base deterministically: one line per arena
// type, one tab-separated line per function with facts. The format
// round-trips through ImportFacts — the CI SARIF artifact embeds it so
// a reviewer can see what the engine concluded.
func (b *FactBase) Export() string {
	var sb strings.Builder
	arenas := make([]string, 0, len(b.arenaTypes))
	for t := range b.arenaTypes {
		arenas = append(arenas, t)
	}
	sort.Strings(arenas)
	for _, t := range arenas {
		fmt.Fprintf(&sb, "arena\t%s\n", t)
	}
	keys := make([]string, 0, len(b.funcs))
	for k, ff := range b.funcs {
		any := false
		for _, h := range ff.has {
			any = any || h
		}
		if any {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		ff := b.funcs[k]
		sb.WriteString("func\t")
		sb.WriteString(k)
		for f := Fact(0); f < numFacts; f++ {
			if ff.has[f] {
				fmt.Fprintf(&sb, "\t%s=%s", factNames[f], ff.via[f])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
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
