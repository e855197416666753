// Command benchmark is the repository's performance benchmark: four
// workloads covering the three user-visible costs (a boltbench suite pass, a
// fleet campaign undefended and defended, one served query over the
// socket), each with a timed run for the end-to-end metrics and a traced run
// for the per-layer metrics. BENCHMARK.json declares the metrics; README.md
// in this directory explains them.
//
// Usage, from the repository root:
//
//	go run ./benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 0|1]
//	go run ./benchmark -workload <name|all> -runs N [-out file]
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -update-golden
//
// Without -trace both runs are made. With one workload and one -trace value
// the last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// envHeader labels a result file with where and how it was measured, so
// numbers from a mis-sized box are not silently compared.
type envHeader struct {
	GOMAXPROCS       int      `json:"gomaxprocs"`
	NumCPU           int      `json:"num_cpu"`
	GoVersion        string   `json:"go_version"`
	Commit           string   `json:"commit"`
	Seed             uint64   `json:"seed"`
	Seconds          float64  `json:"seconds"`
	SleepOvershootUS float64  `json:"load.sleep_overshoot_us"`
	Warnings         []string `json:"sizing_warning,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  envHeader    `json:"env"`
	Runs []*runResult `json:"runs"`
}

func run() error {
	workload := flag.String("workload", "", "workload to run: one of BENCHMARK.json's, or all")
	seed := flag.Uint64("seed", 42, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.String("trace", "", "0: timed run only, 1: traced run only (default: both)")
	out := flag.String("out", "", "result file (default: benchmark/out/result.json)")
	runs := flag.Int("runs", 0, "repeat the workload set in this many fresh processes, seeds seed, seed+1, …")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	golden := flag.Bool("update-golden", false, "regenerate benchmark/golden.json")
	flag.Parse()

	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	case *golden:
		return updateGolden(root)
	}

	var names []string
	for _, w := range spec.Workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-workload %q is not in BENCHMARK.json", *workload)
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		return fmt.Errorf("-trace %q: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	outDir := filepath.Join(root, "benchmark", "out") // span traces and result files
	if *out == "" {
		*out = filepath.Join(outDir, "result.json")
	}
	if *runs > 0 {
		return repeatRuns(spec, *runs, *workload, *seed, *seconds, *trace, *out)
	}

	file := resultFile{Env: envHeader{
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		GoVersion:        runtime.Version(),
		Commit:           commit(root),
		Seed:             *seed,
		Seconds:          *seconds,
		SleepOvershootUS: sleepOvershootUS(200),
	}}
	if file.Env.NumCPU < 2 {
		file.Env.Warnings = append(file.Env.Warnings, "fewer than 2 CPUs: clients and server share one core")
	}
	sz := fullSize()
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if (traced && *trace == "0") || (!traced && *trace == "1") {
				continue
			}
			var res *runResult
			if traced {
				deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
				var layers layerMetrics
				if layers, err = probeLayers(*seed, sz); err != nil {
					return err
				}
				res, err = runTraced(name, *seed, deadline, sz, outDir, layers)
			} else {
				res, err = runTimed(name, *seed, *seconds, sz)
			}
			if err != nil {
				return err
			}
			if res.Warning != "" {
				file.Env.Warnings = append(file.Env.Warnings, res.Warning)
			}
			file.Runs = append(file.Runs, res)
			printRun(spec, res)
		}
	}
	for _, w := range file.Env.Warnings {
		fmt.Fprintln(os.Stderr, "benchmark: sizing_warning:", w)
	}
	if err := writeJSON(*out, file); err != nil {
		return err
	}
	if len(file.Runs) == 1 {
		line, err := contractLine(spec, file.Runs[0])
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// commit is the checkout's HEAD, or "unknown" when the checkout is not a git
// repository (git is not asked then: it would search the parent directories).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// metric is one reported value as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared returns the metrics BENCHMARK.json declares for this kind of run.
func (s *benchSpec) declared(traced bool) []metricDecl {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// printRun prints every metric of a run by name with its unit.
func printRun(spec *benchSpec, res *runResult) {
	kind := "timed"
	if res.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s (%s): %d attempted, %d failed, %d unchecked, %d samples ==\n",
		res.Workload, kind, res.Attempted, res.Failed, res.Unchecked, res.Samples)
	if res.Why != "" {
		fmt.Printf("first failure: %s\n", res.Why)
	}
	units := map[string]string{}
	for _, d := range spec.declared(res.Traced) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(res.Values))
	for name := range res.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit, ok := units[name]
		if !ok {
			unit = "(undeclared)"
		}
		fmt.Printf("  %-36s %14.6g %s\n", name, res.Values[name], unit)
	}
	for _, name := range []string{"setup_s", "op_wall_ms", "op_cpu_ms"} {
		if x, ok := res.Loud[name]; ok {
			fmt.Printf("  %-36s %14.3f x its floor at the median\n", name, x)
		}
	}
	if res.TraceFile != "" {
		fmt.Printf("  spans written to %s\n", res.TraceFile)
	}
}

// contractLine is the run as the one JSON object the driver reads: exactly
// the declared metrics, each with its declared unit.
func contractLine(spec *benchSpec, res *runResult) ([]byte, error) {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range spec.declared(res.Traced) {
		v, ok := res.Values[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: declared metric %s was not measured (first failure: %s)", res.Workload, d.Name, res.Why)
		}
		line.Metrics[d.Name] = metric{v, d.Unit}
	}
	return json.Marshal(line)
}
