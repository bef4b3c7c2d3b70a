package analysis

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// APIPinnedPackages lists the module-relative packages whose exported
// surface is locked by golden files: the three-layer public API — the
// only packages importable from outside the module. Internal packages
// change with their callers; the binary wire encoding is pinned by
// API.md's frame specification, not by a Go surface. A variable so
// tests can pin fixture packages; the real set is the contract.
var APIPinnedPackages = []string{
	"efd",
	"efd/client",
	"efd/monitor",
}

// APIGoldenDir is where the goldens live, relative to the module
// root.
const APIGoldenDir = "internal/analysis/testdata/api"

// APILock fails the build when the exported surface of a pinned
// package drifts from its golden file: every breaking change to the
// public API becomes a deliberate, reviewable regeneration
// (`make api-golden`) instead of a silent diff in a feature PR. The
// rendering is deterministic (sorted names, import-path-qualified
// types, receiver forms, struct tags), so the golden is stable across
// runs and machines.
var APILock = &Analyzer{
	Name: "apilock",
	Doc:  "exported surfaces of the pinned public packages must match their goldens; regenerate deliberately with make api-golden",
	Run:  runAPILock,
}

// apiRel maps a loaded package path to its module-relative form.
func apiRel(pkg *Package) string {
	if rest, ok := strings.CutPrefix(pkg.Path, pkg.ModPath+"/"); ok {
		return rest
	}
	return pkg.Path
}

// APIGoldenFile returns the golden path for a pinned package, or
// ok=false when the package is not pinned.
func APIGoldenFile(pkg *Package) (string, bool) {
	rel := apiRel(pkg)
	for _, p := range APIPinnedPackages {
		if p == rel {
			base := strings.ReplaceAll(rel, "/", "_") + ".golden"
			return filepath.Join(pkg.ModDir, filepath.FromSlash(APIGoldenDir), base), true
		}
	}
	return "", false
}

func runAPILock(pass *Pass) {
	golden, pinned := APIGoldenFile(pass.pkg)
	if !pinned || len(pass.Files) == 0 {
		return
	}
	pos := pass.Files[0].Name.Pos() // the package clause of the first file
	got := FormatAPI(pass.Pkg)
	want, err := os.ReadFile(golden)
	if err != nil {
		pass.Reportf(pos, "public API surface of %s has no golden (%s): run make api-golden and commit it",
			apiRel(pass.pkg), filepath.ToSlash(filepath.Join(APIGoldenDir, filepath.Base(golden))))
		return
	}
	if got == string(want) {
		return
	}
	line, g, w := firstDiff(got, string(want))
	pass.Reportf(pos, "public API surface of %s drifted from its golden at line %d: have %q, golden has %q — an intended API change is regenerated deliberately with make api-golden",
		apiRel(pass.pkg), line, g, w)
}

// firstDiff locates the first differing line between two renderings.
func firstDiff(got, want string) (line int, g, w string) {
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w = "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}

// FormatAPI renders the exported surface of a typechecked package
// deterministically: package clause, then every exported object in
// sorted order — consts and vars with their types, funcs with full
// signatures, types with exported fields (tags included: they are
// wire contract), flattened interface method sets, and the exported
// method set of *T with receiver forms. Types from other packages are
// qualified by full import path, so renames anywhere in a signature
// surface as drift.
func FormatAPI(pkg *types.Package) string {
	var b strings.Builder
	qf := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Path()
	}
	fmt.Fprintf(&b, "package %s // import %q\n", pkg.Name(), pkg.Path())
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Const:
			fmt.Fprintf(&b, "const %s %s\n", name, types.TypeString(o.Type(), qf))
		case *types.Var:
			fmt.Fprintf(&b, "var %s %s\n", name, types.TypeString(o.Type(), qf))
		case *types.Func:
			fmt.Fprintf(&b, "func %s%s\n", name, signatureString(o.Type().(*types.Signature), qf))
		case *types.TypeName:
			formatType(&b, pkg, o, qf)
		}
	}
	return b.String()
}

// signatureString renders "(params) results" for a signature.
func signatureString(sig *types.Signature, qf types.Qualifier) string {
	return strings.TrimPrefix(types.TypeString(sig, qf), "func")
}

func formatType(b *strings.Builder, pkg *types.Package, o *types.TypeName, qf types.Qualifier) {
	if o.IsAlias() {
		fmt.Fprintf(b, "type %s = %s\n", o.Name(), types.TypeString(o.Type(), qf))
		return
	}
	n, ok := o.Type().(*types.Named)
	if !ok {
		fmt.Fprintf(b, "type %s %s\n", o.Name(), types.TypeString(o.Type(), qf))
		return
	}
	switch u := n.Underlying().(type) {
	case *types.Struct:
		fmt.Fprintf(b, "type %s struct\n", o.Name())
		unexported := 0
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				unexported++
				continue
			}
			line := "\t" + f.Name() + " " + types.TypeString(f.Type(), qf)
			if f.Embedded() {
				line = "\t" + types.TypeString(f.Type(), qf)
			}
			if tag := u.Tag(i); tag != "" {
				line += " `" + tag + "`"
			}
			fmt.Fprintln(b, line)
		}
		if unexported > 0 {
			fmt.Fprintf(b, "\t// +%d unexported field(s)\n", unexported)
		}
	case *types.Interface:
		fmt.Fprintf(b, "type %s interface\n", o.Name())
		var methods []string
		for i := 0; i < u.NumMethods(); i++ {
			m := u.Method(i)
			name := m.Name()
			if !m.Exported() && m.Pkg() != nil && m.Pkg() != pkg {
				name = m.Pkg().Path() + "." + name
			}
			methods = append(methods, "\t"+name+signatureString(m.Type().(*types.Signature), qf))
		}
		sort.Strings(methods)
		for _, m := range methods {
			fmt.Fprintln(b, m)
		}
	default:
		fmt.Fprintf(b, "type %s %s\n", o.Name(), types.TypeString(n.Underlying(), qf))
	}
	// The exported method set of *T covers both receiver forms; the
	// rendered receiver records which one the method declares, since
	// moving a method between them changes the method set of T.
	ms := types.NewMethodSet(types.NewPointer(n))
	var lines []string
	for i := 0; i < ms.Len(); i++ {
		m, ok := ms.At(i).Obj().(*types.Func)
		if !ok || !m.Exported() {
			continue
		}
		sig := m.Type().(*types.Signature)
		recv := "?"
		if sig.Recv() != nil {
			recv = types.TypeString(sig.Recv().Type(), qf)
		}
		lines = append(lines, fmt.Sprintf("func (%s) %s%s", recv, m.Name(), signatureString(sig, qf)))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(b, l)
	}
}

// WriteAPIGoldens regenerates the golden files for every pinned
// package present in pkgs and returns the module-relative paths
// written — the `efdvet -api-golden` / `make api-golden` entry point.
func WriteAPIGoldens(pkgs []*Package) ([]string, error) {
	var written []string
	for _, pkg := range pkgs {
		golden, pinned := APIGoldenFile(pkg)
		if !pinned {
			continue
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			return written, err
		}
		if err := os.WriteFile(golden, []byte(FormatAPI(pkg.Types)), 0o644); err != nil {
			return written, err
		}
		rel, err := filepath.Rel(pkg.ModDir, golden)
		if err != nil {
			rel = golden
		}
		written = append(written, filepath.ToSlash(rel))
	}
	sort.Strings(written)
	return written, nil
}
