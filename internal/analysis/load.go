package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully loaded target: parsed syntax (with comments)
// plus complete type information, and the module it was loaded from
// (apilock resolves golden paths against ModDir).
type Package struct {
	Path    string
	Dir     string
	ModPath string
	ModDir  string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// LoadError reports that a package could not be loaded or typechecked
// — a broken tree, not a lint finding. The efdvet driver maps it onto
// a distinct exit code so CI can tell "dirty" from "didn't run".
type LoadError struct {
	Pattern string
	Err     error
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("load %s: %v", e.Pattern, e.Err)
}

func (e *LoadError) Unwrap() error { return e.Err }

// Loader loads typed packages out of one module. Test files
// (_test.go) are outside its scope: the suite checks shipped code.
type Loader struct {
	ModPath string
	ModDir  string

	imp *srcImporter
}

// NewLoader returns a loader rooted at the module containing dir
// (found by walking up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, err := findModuleRoot(abs)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{ModPath: modPath, ModDir: modDir}
	l.imp = newSrcImporter(token.NewFileSet(), modPath, modDir)
	return l, nil
}

// findModuleRoot walks from dir upward to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if p := strings.TrimSpace(rest); p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module line", file)
}

// Load resolves the patterns ("./...", "./dir/...", "./dir" —
// relative to the module root) into package directories and returns
// them typechecked, in path order. Any failure is a *LoadError.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths := make(map[string]bool)
	for _, pat := range patterns {
		dirs, err := l.expand(pat)
		if err != nil {
			return nil, &LoadError{Pattern: pat, Err: err}
		}
		for _, dir := range dirs {
			paths[l.importPath(dir)] = true
		}
	}
	ordered := make([]string, 0, len(paths))
	for p := range paths {
		ordered = append(ordered, p)
		l.imp.targets[p] = true
	}
	sort.Strings(ordered)
	out := make([]*Package, 0, len(ordered))
	for _, path := range ordered {
		if _, err := l.imp.ImportFrom(path, "", 0); err != nil {
			return nil, &LoadError{Pattern: path, Err: err}
		}
		out = append(out, l.imp.built[path])
	}
	return out, nil
}

// LoadDir typechecks a single directory under an explicit import path
// — the fixture-package entry point, where the path the analyzers see
// (e.g. a synthetic ".../internal/tsdb/...") is part of the test.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) { //efdvet:ignore deadcode test support: analysistest and the apilock and callgraph fixture tests
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, &LoadError{Pattern: dir, Err: err}
	}
	l.imp.targets[importPath] = true
	if _, err := l.imp.check(importPath, abs); err != nil {
		return nil, &LoadError{Pattern: dir, Err: err}
	}
	return l.imp.built[importPath], nil
}

// importPath maps a module-tree directory to its import path.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.ModDir, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// expand resolves one pattern to package directories (directories
// containing at least one buildable non-test .go file).
func (l *Loader) expand(pat string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "." || pat == "" {
			pat = "."
		}
	}
	root := filepath.Join(l.ModDir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
	st, err := os.Stat(root)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("%s: not a directory", pat)
	}
	if !recursive {
		if !hasGoFiles(&l.imp.ctxt, root) {
			return nil, fmt.Errorf("%s: no buildable Go files", pat)
		}
		return []string{root}, nil
	}
	dirs, err := packageDirs(&l.imp.ctxt, root)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("%s: no buildable Go files", pat)
	}
	return dirs, nil
}

// packageDirs lists the package directories under root. testdata,
// hidden, and underscore-prefixed directories are skipped, matching
// the go tool's pattern rules.
func packageDirs(ctxt *build.Context, root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(ctxt, path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// hasGoFiles reports whether dir holds at least one buildable
// (constraint-matching, non-test) Go file.
func hasGoFiles(ctxt *build.Context, dir string) bool {
	bp, err := ctxt.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}
