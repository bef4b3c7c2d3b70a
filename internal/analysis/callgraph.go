package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"time"
)

// Module is the shared state of one efdvet run: every loaded target
// package plus the lazily built module-wide indexes (the call graph,
// the atomic-field access index, the transitive hot-path findings, the
// unreachable functions).
// The driver builds one Module and routes every package's pass through
// it, so the expensive constructions happen exactly once per run no
// matter how many analyzers consume them.
type Module struct {
	Pkgs []*Package

	graphOnce sync.Once
	graph     *CallGraph

	hotOnce sync.Once
	hot     []ownedDiag

	atomicOnce sync.Once
	atomic     []ownedDiag

	deadOnce sync.Once
	dead     []ownedDiag
}

// NewModule groups loaded packages into one analysis unit. Transitive
// rules only see edges between the packages given here: run efdvet
// over ./... for whole-module guarantees.
func NewModule(pkgs []*Package) *Module {
	return &Module{Pkgs: pkgs}
}

// Graph returns the module call graph, building it on first use.
func (m *Module) Graph() *CallGraph {
	m.graphOnce.Do(func() { m.graph = buildCallGraph(m.Pkgs) })
	return m.graph
}

// ownedDiag is a module-level finding pre-routed to the package whose
// pass reports it — the package owning the file the position points
// into — so per-file //efdvet:ignore suppressions keep working.
type ownedDiag struct {
	pkg *Package
	pos token.Pos
	msg string
}

// emitOwned reports the module-level findings that belong to this
// pass's package.
func emitOwned(pass *Pass, diags []ownedDiag) {
	for _, d := range diags {
		if d.pkg.Types == pass.Pkg {
			pass.Reportf(d.pos, "%s", d.msg)
		}
	}
}

// EdgeKind classifies how control reaches the callee.
type EdgeKind uint8

const (
	// EdgeCall is a statically resolved direct call.
	EdgeCall EdgeKind = iota
	// EdgeGo is a call launched by a go statement.
	EdgeGo
	// EdgeDefer is a deferred call.
	EdgeDefer
	// EdgeIface is an interface-dispatch call resolved to a possible
	// concrete method by class-hierarchy analysis.
	EdgeIface
	// EdgeRef records a function or method value taken as a value (a
	// callback handed elsewhere); the reference may be invoked later,
	// so transitive rules follow it conservatively.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	case EdgeIface:
		return "iface"
	case EdgeRef:
		return "ref"
	}
	return "?"
}

// Edge is one caller→callee relation with the site it was derived
// from (the first such site when the pair repeats).
type Edge struct {
	Caller *types.Func
	Callee *types.Func
	Site   token.Pos
	Kind   EdgeKind
}

// FuncInfo is one declared function of a target package: its syntax,
// owning package, and the hot/cold path markers from its doc comment.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Hot  bool // doc comment carries //efd:hotpath
	Cold bool // doc comment carries //efd:coldpath
}

// CallGraph is the type-resolved, module-wide call graph: every
// function declared in the target packages, with edges for static
// calls (precise), interface and method-value dispatch (class-
// hierarchy analysis over go/types), go statements, and deferred
// calls. Calls into packages outside the analysis unit (stdlib,
// non-target module packages) carry no edge — their effects are
// judged at the call site by the body rules.
type CallGraph struct {
	// Funcs indexes every declared function in the unit.
	Funcs map[*types.Func]*FuncInfo
	// Order lists the functions deterministically: package path, then
	// declaration position.
	Order []*types.Func
	// BuildTime is the wall-clock cost of construction, surfaced by
	// the driver so analysis-cost regressions are visible in CI logs.
	BuildTime time.Duration

	edges     map[*types.Func][]Edge
	edgeCount int
}

// EdgesFrom returns fn's outgoing edges in source order.
func (g *CallGraph) EdgesFrom(fn *types.Func) []Edge { return g.edges[fn] }

// NumNodes and NumEdges size the graph for the driver's build report.
func (g *CallGraph) NumNodes() int { return len(g.Funcs) }
func (g *CallGraph) NumEdges() int { return g.edgeCount }

// ColdPathMarker is the doc-comment directive that stops hot-path
// propagation: the reviewed, written-down escape hatch for a branch
// that is deliberately cold (error construction, rare lifecycle work).
const ColdPathMarker = "//efd:coldpath"

type graphBuilder struct {
	g     *CallGraph
	named []*types.Named
	// impls caches class-hierarchy resolution per abstract method.
	impls map[*types.Func][]*types.Func
	// seen dedupes (caller, callee, kind) triples; the first site wins.
	seen map[[2]*types.Func]map[EdgeKind]bool
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	start := time.Now()
	g := &CallGraph{
		Funcs: make(map[*types.Func]*FuncInfo),
		edges: make(map[*types.Func][]Edge),
	}
	b := &graphBuilder{
		g:     g,
		impls: make(map[*types.Func][]*types.Func),
		seen:  make(map[[2]*types.Func]map[EdgeKind]bool),
	}
	ordered := append([]*Package(nil), pkgs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Path < ordered[j].Path })
	for _, pkg := range ordered {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Funcs[fn] = &FuncInfo{
					Fn:   fn,
					Decl: fd,
					Pkg:  pkg,
					Hot:  commentHasDirective(fd.Doc, HotPathMarker),
					Cold: commentHasDirective(fd.Doc, ColdPathMarker),
				}
				g.Order = append(g.Order, fn)
			}
		}
		// Every non-generic named concrete type in the unit joins the
		// class hierarchy for interface-dispatch resolution.
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if _, isIface := n.Underlying().(*types.Interface); isIface {
				continue
			}
			b.named = append(b.named, n)
		}
	}
	for _, pkg := range ordered {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					b.walkBody(pkg, fn, fd.Body)
				}
			}
		}
	}
	g.BuildTime = time.Since(start)
	return g
}

// walkBody derives fn's outgoing edges. Function-literal bodies are
// attributed to the enclosing declared function: a closure built and
// run inside F is F's work.
func (b *graphBuilder) walkBody(pkg *Package, caller *types.Func, body ast.Node) {
	// First pass: calls. Go/defer statements tag their CallExpr so the
	// edge carries how control transfers; the Fun expressions in call
	// position are remembered so the reference pass skips them.
	stmtKind := make(map[*ast.CallExpr]EdgeKind)
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			stmtKind[x.Call] = EdgeGo
		case *ast.DeferStmt:
			stmtKind[x.Call] = EdgeDefer
		case *ast.CallExpr:
			kind := EdgeCall
			if k, ok := stmtKind[x]; ok {
				kind = k
			}
			fun := ast.Unparen(x.Fun)
			callFuns[fun] = true
			b.call(pkg, caller, fun, kind)
		}
		return true
	})
	// Second pass: function and method values referenced outside call
	// position — callbacks that may run later.
	handled := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			handled[x.Sel] = true
			if callFuns[x] {
				return true
			}
			if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
				b.ref(pkg, caller, x.Pos(), fn)
			}
		case *ast.Ident:
			if handled[x] || callFuns[x] {
				return true
			}
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
				b.ref(pkg, caller, x.Pos(), fn)
			}
		}
		return true
	})
}

// call records the edge(s) for one call expression.
func (b *graphBuilder) call(pkg *Package, caller *types.Func, fun ast.Expr, kind EdgeKind) {
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[f].(*types.Func); ok {
			b.edge(caller, fn, f.Pos(), kind)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			fn := sel.Obj().(*types.Func)
			if iface := interfaceRecv(fn); iface != nil {
				// go/defer through an interface keeps the statement
				// kind; a plain dispatch is tagged iface.
				ik := kind
				if ik == EdgeCall {
					ik = EdgeIface
				}
				for _, impl := range b.implsOf(fn, iface) {
					b.edge(caller, impl, f.Pos(), ik)
				}
				return
			}
			b.edge(caller, fn, f.Pos(), kind)
			return
		}
		// Package-qualified call or method expression (T.M(recv, …)).
		if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			b.edge(caller, fn, f.Pos(), kind)
		}
	}
}

// ref records a function value taken as a value. Interface method
// values fan out to their possible concrete receivers.
func (b *graphBuilder) ref(pkg *Package, caller *types.Func, pos token.Pos, fn *types.Func) {
	if iface := interfaceRecv(fn); iface != nil {
		for _, impl := range b.implsOf(fn, iface) {
			b.edge(caller, impl, pos, EdgeRef)
		}
		return
	}
	b.edge(caller, fn, pos, EdgeRef)
}

// edge appends caller→callee if the callee is declared in the unit
// and the (caller, callee, kind) triple is new.
func (b *graphBuilder) edge(caller, callee *types.Func, site token.Pos, kind EdgeKind) {
	if caller == callee {
		return
	}
	if _, ok := b.g.Funcs[callee]; !ok {
		return
	}
	key := [2]*types.Func{caller, callee}
	kinds := b.seen[key]
	if kinds == nil {
		kinds = make(map[EdgeKind]bool)
		b.seen[key] = kinds
	}
	if kinds[kind] {
		return
	}
	kinds[kind] = true
	b.g.edges[caller] = append(b.g.edges[caller], Edge{Caller: caller, Callee: callee, Site: site, Kind: kind})
	b.g.edgeCount++
}

// interfaceRecv returns the receiver interface of an abstract method,
// or nil for concrete methods and plain functions.
func interfaceRecv(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// implsOf resolves an interface method to the concrete methods of
// every named type in the unit whose method set satisfies the
// interface — class-hierarchy analysis: sound over the loaded
// packages, imprecise exactly where dynamic dispatch is.
func (b *graphBuilder) implsOf(m *types.Func, iface *types.Interface) []*types.Func {
	if impls, ok := b.impls[m]; ok {
		return impls
	}
	var impls []*types.Func
	for _, n := range b.named {
		if !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if _, declared := b.g.Funcs[fn]; declared {
			impls = append(impls, fn)
		}
	}
	b.impls[m] = impls
	return impls
}

// FuncDisplayName renders fn for call-chain diagnostics: methods as
// Type.Name, functions bare.
func FuncDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// chainString renders root→…→last following the BFS parent links.
func chainString(parent map[*types.Func]*types.Func, last *types.Func) string {
	var names []string
	for fn := last; fn != nil; fn = parent[fn] {
		names = append(names, FuncDisplayName(fn))
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}
