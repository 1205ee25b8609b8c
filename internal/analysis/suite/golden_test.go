package suite_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"golapi/internal/analysis"
	"golapi/internal/analysis/suite"
)

// goldenRow is one diagnostic in `lapivet -json` form.
type goldenRow struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// TestSuiteGolden pins every diagnostic byte of the full suite: each golden
// package under internal/analysis/*/testdata/src/* is run through the 14
// passes exactly as `lapivet -json <dir>` would (one load per package), and
// the rows must equal testdata/golden.json. The analyzer tests' `// want`
// regexps match only part of a message; this is what keeps the rest of
// each message, and the passes' cross-talk on each other's fixtures, fixed.
func TestSuiteGolden(t *testing.T) {
	got := suiteRows(t)
	want, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Leave the actual output where a deliberate message change can be
	// reviewed and copied over the golden file.
	out := filepath.Join(os.TempDir(), "lapivet-golden.json")
	if err := os.WriteFile(out, got, 0o644); err == nil {
		t.Logf("actual output written to %s", out)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("suite output differs from testdata/golden.json at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// suiteRows runs the suite over every golden package and returns the rows
// encoded as `lapivet -json` encodes them.
func suiteRows(t *testing.T) []byte {
	t.Helper()
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	root := l.ModuleRoot
	dirs, err := filepath.Glob(filepath.Join(root, "internal", "analysis", "*", "testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	rows := []goldenRow{}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.Run(root, []string{"./" + filepath.ToSlash(rel)}, suite.Analyzers())
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, d := range res.Diags {
			pos := res.Fset.Position(d.Pos)
			file, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, goldenRow{filepath.ToSlash(file), pos.Line, pos.Column, d.Analyzer, d.Message})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
