package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// repeatRuns runs the workload set n times, each in a fresh process of this
// binary with its own seed, merges the runs into one result file, and
// prints each end-to-end metric's median and quartiles.
func repeatRuns(spec *benchSpec, n int, workload string, seed uint64, seconds float64, trace, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var merged resultFile
	for i := 0; i < n; i++ {
		part := filepath.Join(filepath.Dir(out), fmt.Sprintf("run-%d.json", i))
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed+uint64(i), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", part)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		f, err := readResults(part)
		if err != nil {
			return err
		}
		os.Remove(part)
		if i == 0 {
			merged.Env = f.Env
		} else {
			merged.Env.Warnings = append(merged.Env.Warnings, f.Env.Warnings...)
		}
		merged.Runs = append(merged.Runs, f.Runs...)
		fmt.Fprintf(os.Stderr, "benchmark: run %d of %d done\n", i+1, n)
	}
	if err := writeJSON(out, merged); err != nil {
		return err
	}
	fmt.Printf("%-16s %-14s %4s %14s %14s %14s %8s  %s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "unit")
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			vs := merged.values(w.Name, d.Name)
			if len(vs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vs)
			fmt.Printf("%-16s %-14s %4d %14.6g %14.6g %14.6g %7.1f%%  %s\n", w.Name, d.Name, len(vs), q1, med, q3, 100*(q3-q1)/med, d.Unit)
		}
	}
	fmt.Printf("result file: %s\n", out)
	return nil
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values returns one end-to-end metric of one workload across the file's
// timed runs.
func (f *resultFile) values(workload, name string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if v, ok := r.Values[name]; ok && r.Workload == workload && !r.Traced {
			vs = append(vs, v)
		}
	}
	return vs
}

// quartiles cuts the values as Python's statistics.quantiles(values, n=4)
// does (the driver's rule). One value is its own quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareFiles prints, for each end-to-end metric on each workload, both
// medians, how much worse b is than a (as a share of a's median), the bound
// from BENCHMARK.json, and a verdict: regressed when b is worse by more than
// the bound; unresolved when either side's run-to-run quartile spread is
// wider than the bound, unless every run of b reads better than every run of
// a; ok otherwise.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s (commit %s)\nb: %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Printf("%-16s %-14s %14s %14s %22s %7s  %s\n", "workload", "metric", "median a", "median b", "b worse by (of a)", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			va, vb := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			sign := 1.0 // b worse means b larger
			if d.Better == "higher" {
				sign = -1
			}
			worse := sign * (mb - ma) / ma
			spread := (q3a - q1a) / ma
			if sb := (q3b - q1b) / mb; sb > spread {
				spread = sb
			}
			verdict := "ok"
			switch {
			case spread > d.Bound && !allBetter(va, vb, sign):
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			case worse > d.Bound:
				verdict = "regressed"
			}
			fmt.Printf("%-16s %-14s %14.6g %14.6g %+10.1f%% of %-8.4g %6.0f%%  %s\n",
				w.Name, d.Name, ma, mb, 100*worse, ma, 100*d.Bound, verdict)
		}
	}
	return nil
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(va, vb []float64, sign float64) bool {
	for _, x := range va {
		for _, y := range vb {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
