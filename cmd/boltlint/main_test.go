package main

import (
	"strings"
	"testing"
)

// TestUsageErrorsExit2: an unknown flag and a package that does not exist
// are usage or load errors, which exit 2 (never 1, the code for findings)
// and do not panic.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag", "./..."},
		{"bolt/internal/nosuchpackage"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("boltlint %q exited %d, want 2\n%s", args, code, stderr.String())
		}
		if strings.Contains(stderr.String(), "panic:") {
			t.Errorf("boltlint %q panicked:\n%s", args, stderr.String())
		}
	}
}
