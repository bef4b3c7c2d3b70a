package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a precise position, the rule that fired,
// and a message phrased as the violated invariant.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
}

// String renders the driver's one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Analyzer is one named rule. Run inspects the typed package in the
// pass and reports findings through it.
type Analyzer struct {
	Name string
	// Doc is the one-line summary printed by efdvet -list; LINTS.md
	// carries the full contract.
	Doc string
	Run func(*Pass)
}

// Pass is one (analyzer, package) execution: the typed syntax under
// inspection, the shared module state (call graph and module-wide
// indexes, built once per run), and the report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Mod      *Module

	pkg   *Package
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// All is the full analyzer suite, in reporting order.
var All = []*Analyzer{
	VFSSeam,
	LockDiscipline,
	HotPath,
	AtomicField,
	APILock,
	ErrIs,
	NoExit,
	DeadCode,
}

// Run executes the analyzers over one loaded package and returns the
// raw findings, position-sorted. Suppression comments are not applied
// here — see Suppress. The package is analyzed as a module of one:
// transitive rules see only its own edges. Multi-package runs (the
// driver, the dogfood gate) build one Module and use Module.Run so
// cross-package chains resolve and shared indexes build once.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic { //efdvet:ignore deadcode test support: analysistest and the internal/analysis fixture tests
	return NewModule([]*Package{pkg}).Run(pkg, analyzers)
}

// Run executes the analyzers over one package of the module, with all
// module-wide state (call graph, access indexes) shared across calls.
func (m *Module) Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Mod:      m,
			pkg:      pkg,
			diags:    &diags,
		}
		a.Run(pass)
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by (file, line, col, rule) — the
// one canonical order, applied both per package and by the driver
// across packages, so lint output diffs are stable run-to-run.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}
