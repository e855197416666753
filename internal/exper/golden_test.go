package exper

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenDir holds the committed output goldens, each the stdout of one
// boltbench command line.
const goldenDir = "testdata/golden/"

// checkGolden fails t unless got, the rendered stdout of some of file's
// reports, equals their sections of file line for line. Reports are pure
// functions of the seed, so a report rendered alone or in any subset of
// the suite is its section of the full run.
//
// To regenerate the goldens after a deliberate output change, from the
// repository root:
//
//	go build -o boltbench ./cmd/boltbench
//	d=internal/exper/testdata/golden
//	for s in 42 43 44 45; do ./boltbench -seed $s > $d/seed-$s.txt; done
//	./boltbench -seed 42 -json > $d/seed-42.json
//	for n in 64 256 4096; do ./boltbench -seed 42 -run fleet,defencesweep -fleet $n > $d/seed-42-fleet-$n.txt; done
//
// then read `git diff` of the directory: it shows which lines of which
// experiments moved.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(goldenDir + file)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffReports(want, got); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
}

// section is one report of a rendered output: the lines from its
// "== id: title ==" header up to the next header, each with its newline.
// Lines before the first header, and the whole of an output that has no
// header (a JSON document), form a section with an empty id.
type section struct {
	id    string
	line  int // 1-based line number of the section's first line
	lines []string
}

func splitReports(b []byte) []section {
	lines := strings.SplitAfter(string(b), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	var out []section
	for i, l := range lines {
		id, isHeader := "", strings.HasPrefix(l, "== ") && strings.HasSuffix(l, " ==\n")
		if isHeader {
			id, _, isHeader = strings.Cut(l[len("== "):], ": ")
		}
		if isHeader || i == 0 {
			out = append(out, section{id: id, line: i + 1})
		}
		out[len(out)-1].lines = append(out[len(out)-1].lines, l)
	}
	return out
}

// diffReports compares each report of got with the report of the same id
// in want and, for every report that differs, describes its first
// differing line: the report, the line number in want, and both lines.
func diffReports(want, got []byte) error {
	golden := map[string]section{}
	for _, s := range splitReports(want) {
		golden[s.id] = s
	}
	rendered := splitReports(got)
	if len(rendered) == 0 {
		return errors.New("rendered nothing")
	}
	var errs []error
	for _, g := range rendered {
		w, ok := golden[g.id]
		if !ok {
			errs = append(errs, fmt.Errorf("report %q is not in the golden", g.id))
			continue
		}
		for i := range max(len(w.lines), len(g.lines)) {
			if wl, gl := lineAt(w.lines, i), lineAt(g.lines, i); wl != gl {
				errs = append(errs, fmt.Errorf("report %q differs at line %d (line %d of the report):\n  want %s\n   got %s",
					g.id, w.line+i, i+1, wl, gl))
				break
			}
		}
	}
	return errors.Join(errs...)
}

func lineAt(lines []string, i int) string {
	if i >= len(lines) {
		return "(end of report)"
	}
	return fmt.Sprintf("%q", lines[i])
}

// fleetGolden names the golden holding the seed-42 fleet and defencesweep
// reports at n servers; 0 is the default ladder, which the suite runs.
func fleetGolden(n int) string {
	if n == 0 {
		return "seed-42.txt"
	}
	return fmt.Sprintf("seed-42-fleet-%d.txt", n)
}

// renderStdout renders the experiments exactly the way cmd/boltbench
// writes stdout: reports in order, each through Report.Render.
func renderStdout(t *testing.T, exps []Experiment, seed uint64, parallel int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range Run(exps, seed, parallel) {
		r.Report.Render(&buf)
	}
	return buf.Bytes()
}

// TestGoldenDiffNamesReportAndLine checks the helper on a synthetic
// two-report golden: a subset passes, and a changed or missing line fails
// naming the report, the line and both lines, once for each report that
// differs.
func TestGoldenDiffNamesReportAndLine(t *testing.T) {
	golden := "== a: first ==\nx 1\n\n== b: second ==\ny 1\ny 2\n\n"
	for _, got := range []string{golden, "== b: second ==\ny 1\ny 2\n\n"} {
		if err := diffReports([]byte(golden), []byte(got)); err != nil {
			t.Fatalf("%q against its own golden: %v", got, err)
		}
	}
	for _, tc := range []struct{ got, want string }{
		{strings.Replace(golden, "y 2", "y 3", 1),
			"report \"b\" differs at line 6 (line 3 of the report):\n  want \"y 2\\n\"\n   got \"y 3\\n\""},
		{strings.Replace(golden, "y 2\n", "", 1),
			"report \"b\" differs at line 6 (line 3 of the report):\n  want \"y 2\\n\"\n   got \"\\n\""},
		{golden + "z\n", "report \"b\" differs at line 8 (line 5 of the report):\n  want (end of report)\n   got \"z\\n\""},
		{strings.Replace(strings.Replace(golden, "x 1", "x 2", 1), "y 1", "y 0", 1),
			"report \"a\" differs at line 2 (line 2 of the report):\n  want \"x 1\\n\"\n   got \"x 2\\n\"\n" +
				"report \"b\" differs at line 5 (line 2 of the report):\n  want \"y 1\\n\"\n   got \"y 0\\n\""},
		{"== c: third ==\n", `report "c" is not in the golden`},
		{"", "rendered nothing"},
	} {
		err := diffReports([]byte(golden), []byte(tc.got))
		if err == nil || err.Error() != tc.want {
			t.Errorf("diffReports(%q) = %v, want %q", tc.got, err, tc.want)
		}
	}
}

// TestSuiteGoldenAcrossSeeds checks the whole suite at seeds 43–45 at the
// default worker widths, so a change that keeps seed 42 but moves another
// seed's streams is caught.
func TestSuiteGoldenAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite at three seeds")
	}
	for _, seed := range []uint64{43, 44, 45} {
		file := fmt.Sprintf("seed-%d.txt", seed)
		t.Run(file, func(t *testing.T) { checkGolden(t, file, renderStdout(t, All(), seed, 0)) })
	}
}
