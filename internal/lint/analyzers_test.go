package lint

// TestAnalyzersRegistered guards the wiring: every analyzer is registered
// in All() (which cmd/boltlint consumes verbatim), resolvable by name,
// documented with a Doc string, and mentioned in both DESIGN.md's
// determinism-contract section and the README's lint section — so adding
// an analyzer without documenting it fails the build.

import (
	"os"
	"strings"
	"testing"
)

func TestAnalyzersRegistered(t *testing.T) {
	wantNames := []string{
		"detrand",
		"maporder",
		"hotalloc",
		"hotcopy",
		"barriermerge",
	}
	all := All()
	if len(all) != len(wantNames) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(wantNames))
	}
	for i, a := range all {
		if a.Name != wantNames[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, wantNames[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not resolve to the registered analyzer", a.Name)
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	for _, a := range all {
		if !strings.Contains(string(design), a.Name) {
			t.Errorf("analyzer %s is not documented in DESIGN.md", a.Name)
		}
		if !strings.Contains(string(readme), a.Name) {
			t.Errorf("analyzer %s is not documented in README.md", a.Name)
		}
	}

	// cmd/boltlint consumes the registry as-is; pin that it has not grown a
	// private analyzer list that could drift from All().
	cli, err := os.ReadFile("../../cmd/boltlint/main.go")
	if err != nil {
		t.Fatalf("reading cmd/boltlint/main.go: %v", err)
	}
	if !strings.Contains(string(cli), "lint.All()") {
		t.Error("cmd/boltlint no longer consumes lint.All(); the registration guard is void")
	}
}
