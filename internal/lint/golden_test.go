package lint

// TestGoldenDiagnosticInventory runs the FULL analyzer set over every
// single-package fixture and compares the complete diagnostic list against
// testdata/diagnostics.golden. The per-analyzer tests check their own
// fixture with their own analyzer; this inventory additionally pins that
// no analyzer bleeds unexpected diagnostics into another's fixture, and
// gives CI's lint-self job one exact answer to assert. Regenerate with
//
//	go test ./internal/lint -run TestGoldenDiagnosticInventory -update

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/diagnostics.golden")

// goldenFixtures maps each fixture directory to the package path it is
// checked under (package-gated analyzers key on the path).
var goldenFixtures = []struct{ pkgPath, subdir string }{
	{"bolt/internal/exper", "barriermerge"},
	{"bolt/internal/sim", "detrand"},
	{"bolt/internal/mining", "hotalloc"},
	{"bolt/internal/hotcall", "hotcall"},
	{"bolt/internal/hotcopy", "hotcopy"},
	{"bolt/internal/exper", "maporder"},
	{"bolt/internal/exper", "nolintreason"},
	{"bolt/internal/sim", "unusednolint"},
}

func TestGoldenDiagnosticInventory(t *testing.T) {
	var b strings.Builder
	for _, f := range goldenFixtures {
		pkg := loadFixture(t, f.pkgPath, f.subdir)
		for _, d := range Run([]*Package{pkg}, All()) {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "diagnostics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostic inventory drifted from testdata/diagnostics.golden (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRunTouchesNoDisk pins that a lint run is a pure function of the
// packages it is given: no cache, no state under the user's home. (A
// per-package summary cache once let this suite pass on stale facts.) The
// run happens in a re-executed test binary whose HOME and XDG_CACHE_HOME
// are a fresh directory, so a location resolved at package init is caught
// too; the hotcall fixture imports nothing, so loading it runs no go
// command that would write there itself.
func TestRunTouchesNoDisk(t *testing.T) {
	if os.Getenv("BOLTLINT_NO_DISK_CHILD") != "" {
		Run([]*Package{loadFixture(t, "bolt/internal/hotcall", "hotcall")}, All())
		return
	}
	home := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunTouchesNoDisk$")
	cmd.Env = append(os.Environ(), "BOLTLINT_NO_DISK_CHILD=1",
		"HOME="+home, "XDG_CACHE_HOME="+filepath.Join(home, ".cache"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child run: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(home)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("lint.Run left %s behind under $HOME", e.Name())
	}
}
