package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// srcImporter typechecks packages from source, recursively. The stock
// go/importer "source" importer cannot resolve module-internal import
// paths (go/build's module support needs the go command's package
// graph), so this one does the resolution itself: paths under the
// module prefix map onto the module tree, everything else must be
// GOROOT source (including the std-vendored golang.org/x packages).
// The result is a fully from-source type graph with zero external
// dependencies and no reliance on compiled export data.
type srcImporter struct {
	fset    *token.FileSet
	modPath string
	modDir  string
	ctxt    build.Context

	// targets are import paths the loader wants full syntax+Info for;
	// everything else is typechecked types-only. Building targets
	// through the importer means a target that is also a dependency of
	// a later target is checked exactly once.
	targets map[string]bool
	built   map[string]*Package
	pkgs    map[string]*types.Package
	conf    *types.Config
}

func newSrcImporter(fset *token.FileSet, modPath, modDir string) *srcImporter {
	im := &srcImporter{
		fset:    fset,
		modPath: modPath,
		modDir:  modDir,
		ctxt:    staticContext(),
		targets: make(map[string]bool),
		built:   make(map[string]*Package),
		pkgs:    make(map[string]*types.Package),
	}
	im.conf = &types.Config{Importer: im}
	return im
}

// staticContext is the build context of every load. cgo sources
// cannot be typechecked without running cgo; with it disabled
// go/build selects the pure-Go variants (net's Go resolver, etc.),
// which is exactly what a static pass wants.
func staticContext() build.Context {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return ctxt
}

// dirFor resolves an import path to its source directory.
func (im *srcImporter) dirFor(path string) (string, error) {
	if path == im.modPath {
		return im.modDir, nil
	}
	if rest, ok := strings.CutPrefix(path, im.modPath+"/"); ok {
		return filepath.Join(im.modDir, filepath.FromSlash(rest)), nil
	}
	goroot := im.ctxt.GOROOT
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot resolve import %q: not under module %s and not in GOROOT", path, im.modPath)
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im *srcImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := im.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return p, nil
	}
	dir, err := im.dirFor(path)
	if err != nil {
		return nil, err
	}
	p, err := im.check(path, dir)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// check typechecks the package in dir under the given import path and
// caches it. Targets additionally keep their syntax and types.Info.
func (im *srcImporter) check(path, dir string) (*types.Package, error) {
	im.pkgs[path] = nil // in-progress marker for cycle detection
	defer func() {
		if im.pkgs[path] == nil {
			delete(im.pkgs, path)
		}
	}()
	bp, err := im.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("resolve %s: %w", dir, err)
	}
	target := im.targets[path]
	mode := parser.SkipObjectResolution
	if target {
		mode |= parser.ParseComments
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var info *types.Info
	if target {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}
	pkg, err := im.conf.Check(path, im.fset, files, info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	if target {
		im.built[path] = &Package{
			Path:    path,
			Dir:     dir,
			ModPath: im.modPath,
			ModDir:  im.modDir,
			Fset:    im.fset,
			Files:   files,
			Types:   pkg,
			Info:    info,
		}
	}
	return pkg, nil
}
