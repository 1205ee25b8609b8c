package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from this build")

// TestAllGolden pins every virtual time `lapibench -exp all -csv` prints —
// the §4 set, the scale, collective, rendezvous and pipeline sweeps, and
// the §5.4 Global Arrays set — byte for byte, run serially. A change that
// is meant to move virtual time regenerates the file with
// `go test -run TestAllGolden ./internal/bench/ -update` and shows the diff.
func TestAllGolden(t *testing.T) {
	var out strings.Builder
	if err := Run(&out, "all", Options{CSV: true}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(b) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d lines, golden has %d", len(gl), len(wl))
	}
}
