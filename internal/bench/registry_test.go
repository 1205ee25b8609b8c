package bench

import (
	"io"
	"strings"
	"testing"
)

// TestRegistry pins the driver's contract: one experiment per name, -exp
// all is exactly the InAll set and holds nothing that prints wall-clock
// time (it must stay byte-diffable), and a misspelt name is an error that
// says what would have worked.
func TestRegistry(t *testing.T) {
	wallClock := map[string]bool{"mesh": true, "mesh1k": true, "lintgate": true}
	seen := map[string]bool{}
	var inAll []string
	for _, e := range Experiments() {
		if seen[e.Name] || e.Name == "all" {
			t.Errorf("experiment name %q is taken", e.Name)
		}
		seen[e.Name] = true
		if e.InAll {
			inAll = append(inAll, e.Name)
		}
		if e.InAll == wallClock[e.Name] {
			t.Errorf("%s: InAll = %v, but -exp all holds the virtual-time experiments and only those", e.Name, e.InAll)
		}
	}
	for name := range wallClock {
		if !seen[name] {
			t.Errorf("wall-clock experiment %q is not registered", name)
		}
	}

	// -exp all runs the InAll set, in registry order, and nothing else.
	var ran []string
	for _, e := range selected("all") {
		ran = append(ran, e.Name)
	}
	if got, want := strings.Join(ran, " "), strings.Join(inAll, " "); got != want {
		t.Errorf("-exp all selects %q, want the InAll set %q", got, want)
	}
	if got := selected("mesh1k"); len(got) != 1 || got[0].Name != "mesh1k" {
		t.Errorf("-exp mesh1k selects %v", got)
	}

	err := Run(io.Discard, "tabel2", Options{})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for name := range seen {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %q", err, name)
		}
	}
}
