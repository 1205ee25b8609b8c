// Package analysistest runs a lapivet analyzer over a testdata package and
// checks its diagnostics against expectations embedded in the sources, in
// the style of golang.org/x/tools/go/analysis/analysistest: a comment
//
//	// want `regexp` `regexp` ...
//
// on a line means the analyzer must report diagnostics on that line matching
// each regexp, in any order; lines without a want comment must be clean.
package analysistest

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"golapi/internal/analysis"
)

// Run loads the package in dir (a testdata directory inside the module),
// applies the analyzer, and reports mismatches between actual diagnostics
// and want comments to t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	l, pkg, diags := run(t, dir, a)
	wants, err := parseWants(pkg.Dir)
	if err != nil {
		t.Fatal(err)
	}

	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// Layer is a CheckLayers row: a finding in function Func containing Substr.
type Layer struct{ Func, Substr string }

// CheckLayers fails t for each row the analyzer's findings in dir miss.
// Substr is text only one layer produces, so a hit proves that layer fired.
func CheckLayers(t *testing.T, dir string, a *analysis.Analyzer, rows []Layer) {
	t.Helper()
	_, pkg, diags := run(t, dir, a)
	found := map[string][]string{} // enclosing function -> messages
	for _, d := range diags {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= d.Pos && d.Pos < fd.End() {
					found[fd.Name.Name] = append(found[fd.Name.Name], d.Message)
				}
			}
		}
	}
	for _, r := range rows {
		if !strings.Contains(strings.Join(found[r.Func], "\n"), r.Substr) {
			t.Errorf("%s: no %s finding in %s containing %q (got %q)", dir, a.Name, r.Func, r.Substr, found[r.Func])
		}
	}
}

// run loads the package in dir and applies the analyzer to it.
func run(t *testing.T, dir string, a *analysis.Analyzer) (*analysis.Loader, *analysis.Package, []analysis.Diagnostic) {
	t.Helper()
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, _, err := analysis.RunPackage(l, pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return l, pkg, diags
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("// want((?: +`[^`]*`)+)\\s*$")

// parseWants extracts want expectations from every .go file in dir.
func parseWants(dir string) ([]want, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				if strings.Contains(line, "// want") {
					return nil, fmt.Errorf("%s:%d: malformed want comment (use // want `regexp`)", path, i+1)
				}
				continue
			}
			for _, pat := range strings.Split(strings.TrimSpace(m[1]), "`") {
				pat = strings.TrimSpace(pat)
				if pat == "" {
					continue
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", path, i+1, pat, err)
				}
				wants = append(wants, want{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants, nil
}
