package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadCode keeps out of the tree the functions no binary reaches. A
// declared function must be reachable through the module call graph
// (every edge kind: call, go, defer, interface dispatch, reference)
// from a root:
//
//   - the main of every package main, and every init;
//   - every function named inside a package-level declaration — the
//     graph has no edges out of var initializers such as All;
//   - the exported functions, and exported methods of exported types,
//     of the APIPinnedPackages;
//   - the methods the standard library calls: those of an exported
//     standard interface the receiver implements (String, ServeHTTP,
//     Len/Less/Swap, …), and the Unwrap, Is and As methods the errors
//     package finds through anonymous interfaces.
//
// Test files are not loaded, so a function only tests call is dead;
// test support that must stay carries a suppression naming its tests.
// The verdict needs a load of the whole module (every package ./...
// expands to) that includes a package main. A partial load lacks the
// edges out of the packages it leaves out, so it would report a
// function only those call; a module with no package main has no
// binary to judge from. On any other load the rule stays silent, and
// its suppressions in the loaded packages read as stale.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "every function is reachable from a main, an init, a package-level declaration, the pinned public API or a method the standard library calls",
	Run:  runDeadCode,
}

func runDeadCode(pass *Pass) {
	emitOwned(pass, pass.Mod.deadDiags())
}

// deadDiags computes the unreachable functions once per module.
func (m *Module) deadDiags() []ownedDiag {
	m.deadOnce.Do(func() { m.dead = buildDeadDiags(m.Pkgs, m.Graph()) })
	return m.dead
}

func buildDeadDiags(pkgs []*Package, g *CallGraph) []ownedDiag {
	hasMain := false
	for _, pkg := range pkgs {
		hasMain = hasMain || pkg.Types.Name() == "main"
	}
	if !hasMain || !coversModule(pkgs) {
		return nil
	}
	live := make(map[*types.Func]bool)
	var queue []*types.Func
	mark := func(fn *types.Func) {
		if _, declared := g.Funcs[fn]; declared && !live[fn] {
			live[fn] = true
			queue = append(queue, fn)
		}
	}
	std := stdInterfaces(pkgs)
	for _, fn := range g.Order {
		if isDeadCodeRoot(g.Funcs[fn], std) {
			mark(fn)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					ast.Inspect(gd, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
								mark(fn)
							}
						}
						return true
					})
				}
			}
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, e := range g.EdgesFrom(queue[i]) {
			mark(e.Callee)
		}
	}
	var out []ownedDiag
	for _, fn := range g.Order {
		if !live[fn] {
			fi := g.Funcs[fn]
			out = append(out, ownedDiag{pkg: fi.Pkg, pos: fi.Decl.Name.Pos(), msg: FuncDisplayName(fn) +
				" is dead code: no main, init, package-level declaration, pinned public API or standard-library interface reaches it"})
		}
	}
	return out
}

// coversModule reports whether pkgs hold every package of their
// module, as ./... expands it.
func coversModule(pkgs []*Package) bool {
	ctxt := staticContext()
	dirs, err := packageDirs(&ctxt, pkgs[0].ModDir)
	if err != nil {
		return false
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Dir] = true
	}
	for _, dir := range dirs {
		if !loaded[dir] {
			return false
		}
	}
	return true
}

// isDeadCodeRoot reports whether fi is reachable by definition: an
// entry point, pinned public API, or a method the standard library
// calls through an interface.
func isDeadCodeRoot(fi *FuncInfo, std map[string][]*types.Interface) bool {
	fn := fi.Fn
	_, pinned := APIGoldenFile(fi.Pkg)
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name() == "init" ||
			fn.Name() == "main" && fi.Pkg.Types.Name() == "main" ||
			pinned && fn.Exported()
	}
	named := namedType(recv.Type())
	if named == nil {
		return false
	}
	if pinned && fn.Exported() && named.Obj().Exported() {
		return true
	}
	for _, iface := range std[fn.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// stdInterfaces indexes by method name the interfaces through which
// the standard library calls module methods: error, the exported
// interface types of every package outside the module that the loaded
// packages import (directly or transitively), and the anonymous
// interfaces the errors package asserts.
func stdInterfaces(pkgs []*Package) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(errorIface)
	for _, iface := range errorsInterfaces() {
		add(iface)
	}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if p.Path() == pkgs[0].ModPath || strings.HasPrefix(p.Path(), pkgs[0].ModPath+"/") {
			return
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				add(iface)
			}
		}
	}
	for _, pkg := range pkgs {
		seen[pkg.Types] = true
		for _, imp := range pkg.Types.Imports() {
			visit(imp)
		}
	}
	return byName
}

// errorsInterfaces are the anonymous interfaces errors.Unwrap, Is and
// As assert on an error chain: Unwrap() error, Unwrap() []error,
// Is(error) bool and As(any) bool.
func errorsInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	boolType := types.Typ[types.Bool]
	tuple := func(ts ...types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	iface := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	return []*types.Interface{
		iface("Unwrap", tuple(), tuple(errType)),
		iface("Unwrap", tuple(), tuple(types.NewSlice(errType))),
		iface("Is", tuple(errType), tuple(boolType)),
		iface("As", tuple(types.NewInterfaceType(nil, nil).Complete()), tuple(boolType)),
	}
}
