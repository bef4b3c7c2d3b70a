// Package analysistest runs analyzers over fixture packages and
// checks their diagnostics against expectations written in the
// fixture source itself:
//
//	f, err := os.OpenFile(p, flags, 0) // want `os.OpenFile bypasses the vfs seam`
//
// Each `// want` comment carries one or more quoted regular
// expressions; every diagnostic on that line must be matched by
// exactly one of them, and every expectation must match exactly one
// diagnostic. Fixtures live under testdata (invisible to the normal
// build) and are loaded under synthetic import paths, so path-scoped
// analyzers (vfsseam, lockdiscipline) can be pointed at — or away
// from — their scope as part of the test.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe recognizes an expectation comment; the payload is a
// sequence of quoted ("..." or `...`) regular expressions.
var wantRe = regexp.MustCompile(`^//\s*want\s+(.+)$`)

// quotedRe splits the payload into its quoted tokens.
var quotedRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads the fixture directory under importPath, runs the
// analyzers, and fails t unless the diagnostics and the fixture's
// `// want` comments match one-to-one. The raw diagnostics are
// returned for any further assertions.
func Run(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic { //efdvet:ignore deadcode test support: the internal/analysis fixture tests
	t.Helper()
	pkg, diags := Diagnostics(t, dir, importPath, analyzers...)
	wants := collectWants(t, pkg)
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.pattern)
		}
	}
	return diags
}

// Diagnostics loads the fixture and runs the analyzers without
// checking want comments — for asserting an analyzer stays silent
// (scope tests, package-main exemptions).
func Diagnostics(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) (*analysis.Package, []analysis.Diagnostic) { //efdvet:ignore deadcode test support: the internal/analysis fixture tests
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader(%s): %v", dir, err)
	}
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s, %s): %v", dir, importPath, err)
	}
	return pkg, analysis.Run(pkg, analyzers)
}

type want struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	used    bool
}

// collectWants extracts every expectation comment in the package.
func collectWants(t *testing.T, pkg *analysis.Package) []*want { //efdvet:ignore deadcode test support: want matching of analysistest.Run
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				tokens := quotedRe.FindAllString(m[1], -1)
				if len(tokens) == 0 {
					t.Errorf("%s:%d: malformed want comment: no quoted pattern in %q", pos.Filename, pos.Line, m[1])
					continue
				}
				for _, tok := range tokens {
					pat, err := unquote(tok)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, tok, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: pat, re: re})
				}
			}
		}
	}
	return wants
}

func unquote(tok string) (string, error) { //efdvet:ignore deadcode test support: want matching of analysistest.Run
	if strings.HasPrefix(tok, "`") {
		return strings.Trim(tok, "`"), nil
	}
	return strconv.Unquote(tok)
}

// claim marks the first unused want on the diagnostic's line whose
// regexp matches the message.
func claim(wants []*want, d analysis.Diagnostic) bool { //efdvet:ignore deadcode test support: want matching of analysistest.Run
	for _, w := range wants {
		if w.used || w.file != d.File || w.line != d.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.used = true
			return true
		}
	}
	return false
}
