// Command lapivet runs the golapi static-analysis suite: vet-style passes
// that enforce the LAPI usage invariants the compiler cannot see (see
// internal/analysis and DESIGN.md "Usage invariants").
//
// Usage:
//
//	lapivet [-only pass[,pass]] [-json] [-strict-ignores] [packages]
//
// Packages default to ./... relative to the enclosing module. The exit
// status is 1 when any diagnostic is reported, so `make lint` gates CI.
// -json emits machine-readable diagnostics (one JSON array of objects with
// file, line, col, pass, message; file paths are module-relative and the
// ordering is deterministic). -strict-ignores additionally fails the run
// when a //lapivet:ignore comment suppresses nothing.
//
// Per-line suppression: //lapivet:ignore pass[,pass] <reason>
// (on the offending line or the line above).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"golapi/internal/analysis"
	vetsuite "golapi/internal/analysis/suite"
)

var suite = vetsuite.Analyzers()

// diagJSON is one -json output row. File is module-relative and
// slash-separated so the output is stable across checkouts.
type diagJSON struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

func main() {
	only := flag.String("only", "", "comma-separated subset of passes to run")
	list := flag.Bool("list", false, "list the available passes and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	strictIgnores := flag.Bool("strict-ignores", false, "fail when a lapivet:ignore comment suppresses nothing")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lapivet [-only pass[,pass]] [-json] [-strict-ignores] [packages]\n\npasses:\n")
		for _, a := range suite {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := suite
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "lapivet: unknown pass %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	res, err := analysis.Run(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lapivet: %v\n", err)
		os.Exit(2)
	}

	relFile := func(abs string) string {
		if rel, err := filepath.Rel(res.ModuleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return filepath.ToSlash(abs)
	}

	if *jsonOut {
		rows := make([]diagJSON, 0, len(res.Diags))
		for _, d := range res.Diags {
			pos := res.Fset.Position(d.Pos)
			rows = append(rows, diagJSON{
				File:    relFile(pos.Filename),
				Line:    pos.Line,
				Col:     pos.Column,
				Pass:    d.Analyzer,
				Message: d.Message,
			})
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintf(os.Stderr, "lapivet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Diags {
			fmt.Printf("%s: %s [%s]\n", res.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}

	failed := len(res.Diags) > 0
	if failed {
		fmt.Fprintf(os.Stderr, "lapivet: %d diagnostic(s)\n", len(res.Diags))
	}
	if *strictIgnores && len(res.Stale) > 0 {
		for _, ig := range res.Stale {
			fmt.Fprintf(os.Stderr, "%s:%d: lapivet:ignore %s suppresses nothing: remove it or fix the pass list\n",
				relFile(ig.File), ig.Line, strings.Join(ig.Names, ","))
		}
		fmt.Fprintf(os.Stderr, "lapivet: %d stale ignore comment(s)\n", len(res.Stale))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
