package main_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzTargetsInCI fails when a native fuzz target in a _test.go file
// outside testdata has no `{ pkg: ./<dir>, target: <name> }` entry in the
// CI fuzz job's matrix (.github/workflows/ci.yml): a target that never runs
// guards nothing.
func TestFuzzTargetsInCI(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	targets := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			targets++
			entry := "{ pkg: ./" + filepath.ToSlash(filepath.Dir(path)) + ", target: " + string(m[1]) + " }"
			if !strings.Contains(string(ci), entry) {
				t.Errorf("%s: %s has no CI fuzz entry; add `- %s` to the fuzz job's matrix", path, m[1], entry)
			}
		}
		return err
	})
	if err != nil || targets == 0 {
		t.Fatalf("walking the tree for fuzz targets: %v (%d found)", err, targets)
	}
}
