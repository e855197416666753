// Command boltbench regenerates every table and figure of the paper's
// evaluation and prints them in paper-style form.
//
// Usage:
//
//	boltbench [-seed N] [-run id[,id...]] [-parallel N] [-epworkers N]
//	          [-shardworkers N] [-fleet N] [-defence p[,p...]] [-json] [-list]
//
// Without -run it executes all experiments in paper order. Experiment IDs
// match the per-experiment index in DESIGN.md (table1, fig2, ... ablation);
// repeating an ID in -run is rejected, since the suite renders each
// experiment exactly once per run.
//
// Experiments run concurrently (-parallel, default GOMAXPROCS), and inside
// one experiment independent episodes run concurrently too (-epworkers,
// default GOMAXPROCS). Reports are buffered and emitted in paper order and
// every episode draws from its own pre-split RNG stream, so stdout is
// byte-identical for a given seed at every -parallel × -epworkers
// combination. Timing goes to stderr.
//
// The fleet experiment additionally ticks its simulated datacenter on a
// sharded worker pool (-shardworkers, default GOMAXPROCS); per-server RNG
// pre-splitting and per-server result slots keep stdout byte-identical at
// every -shardworkers level too. The width is an upper
// bound: an advance too small to repay a goroutine handoff (under 512
// server-ticks per shard — any single tick of a 256-server fleet) runs
// inline on the caller. -fleet pins the fleet's server count (e.g. 4096
// for the ~20k-VM datacenter run) and -defence selects the defencesweep
// experiment's placement-policy ladder; unlike the worker knobs these
// change the experiment itself, not its schedule.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the
// standard `go tool pprof` format); the memory profile is taken after a
// final GC so it reflects live retained heap, like `go test -memprofile`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"bolt/internal/exper"
	"bolt/internal/fleet"
)

// checkFlags rejects the flag values a run cannot start from, before any
// work: a negative count (counts maps -parallel, -epworkers, -shardworkers
// and -fleet by name to their values, where 0 means the default), an
// unknown or repeated -run id, and a -defence list that names no policy, a
// policy off the defencesweep ladder (which would otherwise report an
// undefended fleet under the typo's name) or one policy twice. It installs
// the -defence list and returns the experiments -run selects (all of them
// for an empty -run).
func checkFlags(runIDs, defence string, counts map[string]int) ([]exper.Experiment, error) {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := counts[name]; v < 0 {
			return nil, fmt.Errorf("-%s %d: must be 0 (the default) or more", name, v)
		}
	}
	if err := exper.SetDefencePolicies(defence); err != nil {
		return nil, fmt.Errorf("-defence: %v", err)
	}
	if runIDs == "" {
		return exper.All(), nil
	}
	var selected []exper.Experiment
	seen := make(map[string]bool)
	for _, id := range strings.Split(runIDs, ",") {
		id = strings.TrimSpace(id)
		e, ok := exper.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("experiment %q repeated in -run", id)
		}
		seen[id] = true
		selected = append(selected, e)
	}
	return selected, nil
}

// main is a thin wrapper: all work happens in run so that its defers
// (profile writers) execute before the process exits — os.Exit anywhere
// inside run's body would silently truncate an in-flight CPU profile.
func main() {
	os.Exit(run())
}

func run() (code int) {
	seed := flag.Uint64("seed", 42, "experiment seed (all results are deterministic per seed)")
	runIDs := flag.String("run", "", "comma-separated experiment IDs to run (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON document instead of tables")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"max experiments in flight at once (results are identical at any level)")
	epworkers := flag.Int("epworkers", 0,
		"max episodes in flight inside one experiment; 0 = GOMAXPROCS (results are identical at any level)")
	shardworkers := flag.Int("shardworkers", 0,
		"max fleet-tick shards in flight inside the fleet experiments; 0 = GOMAXPROCS; small ticks run inline whatever the value (results are identical at any level)")
	fleetSize := flag.Int("fleet", 0,
		"server count for the fleet experiment; 0 sweeps the default fleet-size ladder (different values are different experiments)")
	defence := flag.String("defence", "",
		"comma-separated placement policies for the defencesweep experiment (none, pssf, bandit-eps, bandit-ucb, mtd); empty runs the full ladder (different values are different experiments)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after final GC) to this file")
	flag.Parse()

	// Installed once, before any experiment runs (the deterministic-suite
	// contract forbids flipping a knob mid-run).
	selected, err := checkFlags(*runIDs, *defence, map[string]int{
		"parallel": *parallel, "epworkers": *epworkers, "shardworkers": *shardworkers, "fleet": *fleetSize,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "boltbench: %v\n", err)
		return 2
	}
	exper.SetEpisodeWorkers(*epworkers)
	fleet.SetShardWorkers(*shardworkers)
	exper.SetFleetServers(*fleetSize)

	if *list {
		for _, e := range exper.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// Profiling starts only after flag validation so usage errors exit
	// without leaving truncated profile files behind.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boltbench: creating CPU profile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "boltbench: starting CPU profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Deferred so the profile captures the heap the run actually
		// retained. A failure here reports and marks the exit code, but
		// falls through — exiting from inside this defer would skip the
		// CPU-profile defer above and truncate that file.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "boltbench: creating heap profile: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			defer f.Close()
			runtime.GC() // material allocations only: report live retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "boltbench: writing heap profile: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	start := time.Now()
	results := exper.Run(selected, *seed, *parallel)

	if *asJSON {
		reports := make([]*exper.Report, len(results))
		for i, r := range results {
			reports[i] = r.Report
		}
		if err := exper.WriteAllJSON(os.Stdout, *seed, reports); err != nil {
			fmt.Fprintf(os.Stderr, "boltbench: writing JSON: %v\n", err)
			return 1
		}
		return 0
	}

	for _, r := range results {
		r.Report.Render(os.Stdout)
		fmt.Fprintf(os.Stderr, "[%s took %.1fs]\n", r.Experiment.ID, r.Elapsed.Seconds())
	}
	fmt.Fprintf(os.Stderr, "boltbench: %d experiment(s) in %.1fs (seed %d, parallel %d, epworkers %d)\n",
		len(selected), time.Since(start).Seconds(), *seed, *parallel, exper.EpisodeWorkers())
	return 0
}
