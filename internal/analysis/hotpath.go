package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathMarker is the doc-comment directive that opts a function
// into the hot-path allocation rules.
const HotPathMarker = "//efd:hotpath"

// HotPathMaxDepth bounds the transitive traversal: a call chain
// deeper than this from its marked root is reported as crossing the
// analysis horizon instead of being silently trusted. It is a
// variable so the horizon behavior itself is testable; the default is
// far beyond any real chain in the tree.
var HotPathMaxDepth = 20

// HotPath keeps the recognition, wire-codec, and window-mean paths
// allocation-free (the PR 1/3 contract): no fmt calls, no
// time.Now/Since, no non-constant string concatenation, no map
// allocation, no slog, and of the internal/obs kit only the
// instrument fast paths. The point is catching alloc regressions at
// review time instead of bench time — formatting belongs in cold
// helpers the error path calls.
//
// The contract is transitive: it binds the //efd:hotpath-marked
// function AND every module-internal function reachable from it
// through the call graph — static calls, interface dispatch (resolved
// by class-hierarchy analysis), go statements, deferred calls, and
// function values taken as callbacks. Violations in unmarked callees
// are reported with the full call chain from the marked root.
// //efd:coldpath on a callee's doc comment is the reviewed escape
// hatch: traversal stops there and its body stays unchecked.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//efd:hotpath functions — and everything reachable from them, minus //efd:coldpath — stay free of fmt, time.Now, slog, string concat, map allocation, and non-fast-path obs calls",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	emitOwned(pass, pass.Mod.hotDiags())
}

// hotDiags computes the transitive hot-path findings once per module.
func (m *Module) hotDiags() []ownedDiag {
	m.hotOnce.Do(func() { m.hot = buildHotDiags(m.Graph()) })
	return m.hot
}

type hotViolation struct {
	pos token.Pos
	msg string
}

func buildHotDiags(g *CallGraph) []ownedDiag {
	var out []ownedDiag
	bodyCache := make(map[*types.Func][]hotViolation)
	violations := func(fi *FuncInfo) []hotViolation {
		if v, ok := bodyCache[fi.Fn]; ok {
			return v
		}
		h := &hotWalker{pkg: fi.Pkg, covered: make(map[ast.Expr]bool)}
		ast.Inspect(fi.Decl.Body, h.visit)
		bodyCache[fi.Fn] = h.found
		return h.found
	}
	// reported dedupes by position across roots: when two marked
	// roots reach the same violating call, the first root in
	// deterministic order owns the finding and prints its chain.
	reported := make(map[token.Pos]bool)
	report := func(pkg *Package, pos token.Pos, msg string) {
		if !reported[pos] {
			reported[pos] = true
			out = append(out, ownedDiag{pkg: pkg, pos: pos, msg: msg})
		}
	}
	for _, root := range g.Order {
		ri := g.Funcs[root]
		if !ri.Hot {
			continue
		}
		// The marked body itself: the original intraprocedural form.
		for _, v := range violations(ri) {
			report(ri.Pkg, v.pos, v.msg)
		}
		// Breadth-first over the call graph, so each reached function
		// carries its shortest chain from this root.
		type qent struct {
			fn    *types.Func
			depth int
		}
		parent := map[*types.Func]*types.Func{}
		visited := map[*types.Func]bool{root: true}
		queue := []qent{{root, 0}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range g.EdgesFrom(cur.fn) {
				ci := g.Funcs[e.Callee]
				if ci == nil || visited[e.Callee] {
					continue
				}
				visited[e.Callee] = true
				if ci.Cold || ci.Hot {
					// Cold: the written-down escape hatch. Hot: the
					// callee is its own root and reports directly.
					continue
				}
				if cur.depth+1 > HotPathMaxDepth {
					report(g.Funcs[cur.fn].Pkg, e.Site, fmt.Sprintf(
						"call chain from //efd:hotpath %s exceeds the analysis horizon (depth %d) at %s → %s: mark the intermediate //efd:hotpath or //efd:coldpath so the contract stays checkable",
						FuncDisplayName(root), HotPathMaxDepth,
						FuncDisplayName(cur.fn), FuncDisplayName(e.Callee)))
					continue
				}
				parent[e.Callee] = cur.fn
				queue = append(queue, qent{e.Callee, cur.depth + 1})
				for _, v := range violations(ci) {
					report(ci.Pkg, v.pos, fmt.Sprintf(
						"transitive hot path (%s): %s (a deliberately cold callee needs //efd:coldpath)",
						chainString(parent, e.Callee), v.msg))
				}
			}
		}
	}
	return out
}

// hotWalker applies the body rules to one function and collects the
// violations; the transitive layer decides where and how they are
// reported.
type hotWalker struct {
	pkg   *Package
	found []hotViolation
	// covered marks string-concat operands already reported through
	// their parent expression, so a+b+c yields one finding, not two.
	covered map[ast.Expr]bool
}

func (h *hotWalker) reportf(pos token.Pos, format string, args ...any) {
	h.found = append(h.found, hotViolation{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (h *hotWalker) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.CallExpr:
		h.call(x)
	case *ast.BinaryExpr:
		if x.Op == token.ADD && h.isAllocatingConcat(x) {
			if !h.covered[x] {
				h.reportf(x.Pos(), "string concatenation allocates in a hot path: build into a reused []byte instead")
			}
			h.covered[ast.Unparen(x.X)] = true
			h.covered[ast.Unparen(x.Y)] = true
		}
	case *ast.AssignStmt:
		if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && h.isString(x.Lhs[0]) {
			h.reportf(x.Pos(), "string += allocates in a hot path: build into a reused []byte instead")
		}
	case *ast.CompositeLit:
		if tv, ok := h.pkg.Info.Types[x]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				h.reportf(x.Pos(), "map literal allocates in a hot path: hoist it to a package var or the enclosing struct")
			}
		}
	}
	return true
}

func (h *hotWalker) call(x *ast.CallExpr) {
	if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "make" {
		if _, isBuiltin := h.pkg.Info.Uses[id].(*types.Builtin); isBuiltin && len(x.Args) > 0 {
			if tv, ok := h.pkg.Info.Types[x.Args[0]]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					h.reportf(x.Pos(), "map allocation (make) in a hot path: hoist it out or reuse across calls")
				}
			}
		}
		return
	}
	fn := calleeFunc(h.pkg.Info, x)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch path := fn.Pkg().Path(); {
	case path == "fmt":
		h.reportf(x.Pos(), "fmt.%s in a hot path allocates: move formatting to a cold error-path helper", fn.Name())
	case path == "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			h.reportf(x.Pos(), "time.%s in a hot path costs a clock read per call: take the timestamp once outside", fn.Name())
		}
	case path == "log/slog":
		h.reportf(x.Pos(), "slog.%s in a hot path allocates: emit a counter here and log from the cold path", fn.Name())
	case strings.HasSuffix(path, "internal/obs"):
		// Only the alloc-free instrument fast paths are hot-path
		// safe; registration, exposition, and tracing helpers are
		// construction/scrape-time API.
		switch fn.Name() {
		case "Add", "Observe", "Value", "Count", "Sum":
		default:
			h.reportf(x.Pos(), "obs.%s in a hot path allocates: only the instrument fast paths (Add, Observe) are hot-path safe", fn.Name())
		}
	}
}

// isAllocatingConcat reports whether e is a string + that survives to
// runtime: constant-folded concatenations ("a" + "b") cost nothing
// and stay legal.
func (h *hotWalker) isAllocatingConcat(e *ast.BinaryExpr) bool {
	tv, ok := h.pkg.Info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (h *hotWalker) isString(e ast.Expr) bool {
	tv, ok := h.pkg.Info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
