// Command benchjson runs the repository's Go benchmarks — or any command
// that emits Go-benchmark-format lines — and writes the results as
// machine-readable JSON, so CI can archive the performance trajectory
// (ns/op, B/op, allocs/op, and custom metrics) per benchmark from PR to PR.
//
// Usage:
//
//	benchjson [-bench regex] [-benchtime 2x] [-count N] [-pkg ./...] [-out BENCH_hotpath.json] [-append]
//	benchjson -exec [-out BENCH_serve.json] [-append] -- command [args...]
//
// -append merges the new results into an existing -out file (replacing
// same-name benchmarks), so microbenchmarks can be recorded at a stable
// iteration count and the slow suite benchmarks at a small one. A
// benchmark name appearing twice — within one run, or surviving a merge —
// is an error: the recorded trajectory keys on names.
//
// -count N (go test mode only) repeats every benchmark N times and records
// the median of each value with the quartiles of ns/op, so a file compares
// medians against a spread instead of single readings. Every file records
// the GOMAXPROCS and CPU count it was measured under: a worker sweep means
// nothing without them.
//
// By default it shells out to `go test -run ^$ -bench <regex> -benchmem`
// and parses the standard benchmark output lines, e.g.
//
//	BenchmarkSimTick   20000   1513 ns/op   0 B/op   0 allocs/op
//
// With -exec it instead runs the command after "--" and parses its stdout
// the same way. Value/unit pairs beyond the three standard ones — whether
// from testing.B.ReportMetric or from a driver like cmd/boltload — are
// captured into each result's "metrics" map keyed by unit, e.g.
//
//	BenchmarkBoltload/inproc/w2/c16  1048576  1180 ns/op  846000 qps  41.0 p50-us
//
// yields metrics {"qps": 846000, "p50-us": 41.0}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"bolt/internal/stats"
)

// Result is one parsed benchmark line. BenchTime records the -benchtime
// the result was collected at, since an appended report may mix runs
// (e.g. microbenchmarks at a stable iteration count, the full suite at a
// small one); -exec results carry no benchtime. Metrics holds every
// value/unit pair beyond the three standard ones, keyed by unit. Under
// -count N every value is the median of the N runs, Samples is N, and
// NsPerOpQ1/Q3 are the quartiles of ns/op — the run-to-run spread a gate
// comparing two rows has to allow for.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsPerOpQ1   float64            `json:"ns_per_op_q1,omitempty"`
	NsPerOpQ3   float64            `json:"ns_per_op_q3,omitempty"`
	Samples     int                `json:"samples,omitempty"`
	BytesPerOp  int64              `json:"b_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	BenchTime   string             `json:"benchtime,omitempty"`
}

// Report is the file benchjson writes.
type Report struct {
	GeneratedAt string   `json:"generated_at"`
	GoOS        string   `json:"goos,omitempty"`
	GoArch      string   `json:"goarch,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"num_cpu"`
	Bench       string   `json:"bench"`
	BenchTime   string   `json:"benchtime,omitempty"`
	Benchmarks  []Result `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", "BenchmarkSimTick|BenchmarkEpisodeStep|BenchmarkSuite", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "2x", "value passed to go test -benchtime")
	pkg := flag.String("pkg", ".", "package pattern passed to go test")
	out := flag.String("out", "BENCH_hotpath.json", "output JSON path")
	count := flag.Int("count", 1, "value passed to go test -count; above 1, each benchmark records the median and ns/op quartiles of its runs")
	timeout := flag.String("timeout", "30m", "value passed to go test -timeout")
	execMode := flag.Bool("exec", false,
		"run the command after -- instead of go test, parsing its stdout as benchmark lines")
	appendOut := flag.Bool("append", false,
		"merge results into an existing -out file instead of replacing it (same-name benchmarks are overwritten)")
	flag.Parse()

	if err := checkFlags(*count, *execMode, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}

	var cmd *exec.Cmd
	var benchLabel, benchTime string
	if *execMode {
		args := flag.Args()
		cmd = exec.Command(args[0], args[1:]...)
		benchLabel = strings.Join(args, " ")
	} else {
		cmd = exec.Command("go", "test", "-run", "^$",
			"-bench", *bench, "-benchmem", "-benchtime", *benchtime,
			"-count", strconv.Itoa(*count), "-timeout", *timeout, *pkg)
		benchLabel, benchTime = *bench, *benchtime
	}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s failed: %v\n%s", cmd.Path, err, buf.String())
		os.Exit(1)
	}

	report := parseReport(&buf)
	report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	// The child inherits this process's environment, so these are the
	// values the benchmarks ran under.
	report.GOMAXPROCS = runtime.GOMAXPROCS(0)
	report.NumCPU = runtime.NumCPU()
	report.Bench = benchLabel
	report.BenchTime = benchTime
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines matched")
		os.Exit(1)
	}
	// One run must yield -count results per name: more means the regex
	// matched the same benchmark in several packages, and silently keeping
	// both would make the recorded trajectory ambiguous — and -append's
	// same-name replacement nondeterministic.
	var err error
	if report.Benchmarks, err = collapse(report.Benchmarks, *count); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v; narrow -bench or -pkg so each name is unique\n", err)
		os.Exit(1)
	}
	for i := range report.Benchmarks {
		report.Benchmarks[i].BenchTime = benchTime
	}

	if *appendOut {
		if prev, err := os.ReadFile(*out); err == nil {
			var old Report
			if err := json.Unmarshal(prev, &old); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -append: parsing existing %s: %v\n", *out, err)
				os.Exit(1)
			}
			merged, err := mergeReports(old, report)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -append: %v; regenerate %s without -append\n", err, *out)
				os.Exit(1)
			}
			report = merged
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
}

// checkFlags rejects the flag values a run cannot start from, before any
// command runs: a -count below 1, a -count in -exec mode (which runs its
// command once), and -exec with no command after --.
func checkFlags(count int, execMode bool, args []string) error {
	if count < 1 || (execMode && count != 1) {
		return fmt.Errorf("-count %d: -count must be at least 1, and applies to go test mode only", count)
	}
	if execMode && len(args) == 0 {
		return fmt.Errorf("-exec needs a command after --")
	}
	return nil
}

// parseReport scans benchmark-format output: goos/goarch/cpu headers and
// Benchmark lines. GeneratedAt, Bench and BenchTime are the caller's to
// fill.
func parseReport(r io.Reader) Report {
	var report Report
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseLine(line); ok {
				report.Benchmarks = append(report.Benchmarks, res)
			}
		}
	}
	return report
}

// mergeReports merges fresh into old, -append style: fresh results replace
// same-name old ones, everything else survives, and the merged set must
// still be duplicate-free (an existing file written before duplicates were
// rejected may already carry one).
func mergeReports(old, fresh Report) (Report, error) {
	names := make(map[string]bool, len(fresh.Benchmarks))
	for _, r := range fresh.Benchmarks {
		names[r.Name] = true
	}
	merged := make([]Result, 0, len(old.Benchmarks)+len(fresh.Benchmarks))
	for _, r := range old.Benchmarks {
		if !names[r.Name] {
			merged = append(merged, r)
		}
	}
	fresh.Benchmarks = append(merged, fresh.Benchmarks...)
	fresh.Bench = mergeLabels(old.Bench, fresh.Bench, "|")
	fresh.BenchTime = mergeLabels(old.BenchTime, fresh.BenchTime, ",")
	if dup := firstDuplicate(fresh.Benchmarks); dup != "" {
		return Report{}, fmt.Errorf("benchmark %q would appear more than once", dup)
	}
	return fresh, nil
}

// mergeLabels joins the sep-separated labels of old and fresh, each once,
// in first-seen order, so re-recording a bench already in a report leaves
// its header as it was.
func mergeLabels(old, fresh, sep string) string {
	var labels []string
	for _, l := range append(strings.Split(old, sep), strings.Split(fresh, sep)...) {
		if l != "" && !slices.Contains(labels, l) {
			labels = append(labels, l)
		}
	}
	return strings.Join(labels, sep)
}

// collapse folds the count results each benchmark name must have into one:
// every value becomes the median over the runs, with the quartiles of
// ns/op beside it. A name with any other number of results is an error.
// Order of first appearance is kept.
func collapse(results []Result, count int) ([]Result, error) {
	byName := make(map[string][]Result, len(results))
	var order []string
	for _, r := range results {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		runs := byName[name]
		if len(runs) != count {
			return nil, fmt.Errorf("benchmark %q has %d results in this run, want %d", name, len(runs), count)
		}
		if count == 1 {
			out = append(out, runs[0])
			continue
		}
		// quartile q (0-100) of one field across the runs
		at := func(q float64, get func(Result) float64) float64 {
			xs := make([]float64, len(runs))
			for i, r := range runs {
				xs[i] = get(r)
			}
			return stats.Percentile(xs, q)
		}
		ns := func(r Result) float64 { return r.NsPerOp }
		med := Result{
			Name:        name,
			Iterations:  runs[0].Iterations,
			NsPerOp:     at(50, ns),
			NsPerOpQ1:   at(25, ns),
			NsPerOpQ3:   at(75, ns),
			Samples:     count,
			BytesPerOp:  int64(at(50, func(r Result) float64 { return float64(r.BytesPerOp) })),
			AllocsPerOp: int64(at(50, func(r Result) float64 { return float64(r.AllocsPerOp) })),
		}
		for unit := range runs[0].Metrics {
			if med.Metrics == nil {
				med.Metrics = make(map[string]float64)
			}
			med.Metrics[unit] = at(50, func(r Result) float64 { return r.Metrics[unit] })
		}
		out = append(out, med)
	}
	return out, nil
}

// firstDuplicate returns the first benchmark name that appears more than
// once, or "".
func firstDuplicate(results []Result) string {
	seen := make(map[string]bool, len(results))
	for _, r := range results {
		if seen[r.Name] {
			return r.Name
		}
		seen[r.Name] = true
	}
	return ""
}

// parseLine parses one `BenchmarkName-N  iters  X ns/op  Y B/op  Z allocs/op`
// line. The -cpu suffix is kept out of the name so results are comparable
// across machines. Value/unit pairs beyond the three standard ones are
// collected into Metrics keyed by unit; a unit appearing twice keeps the
// last value, matching how `go test` itself reports repeated ReportMetric
// calls.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		default:
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}
