// Command boltctl runs Bolt interactively against a single simulated host:
// it places one or more victim applications, injects the adversarial VM,
// runs detection, and prints the top of the similarity ranking, the recovered
// resource profile, and a ready-to-launch DoS plan.
//
// Usage:
//
//	boltctl [-seed N] [-victims class[,class...]] [-adv-vcpus N] [-iters N]
//
// Victim classes: memcached hadoop spark cassandra speccpu webserver sql
// mongodb redis storm graph (or "random").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bolt/internal/attack"
	"bolt/internal/core"
	"bolt/internal/isolation"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// shownMatches is how many of the ranked matches boltctl prints. Detect
// returns only the first mining.MatchesKept, so it may not exceed that
// (TestShownMatchesWithinMatchesKept).
const shownMatches = 5

// checkFlags rejects the flag values a run cannot start from, before the
// seconds of training: a detection of no iterations has no result to
// print, the adversarial VM needs a vCPU to probe from, and every victim
// class must be one boltctl can build.
func checkFlags(iters, advVCPUs int, victims []string) error {
	if iters < 1 {
		return fmt.Errorf("-iters %d: want at least 1 detection iteration", iters)
	}
	if advVCPUs < 1 {
		return fmt.Errorf("-adv-vcpus %d: want at least 1 vCPU", advVCPUs)
	}
	gens := victimGens()
	for _, class := range victims {
		if _, ok := gens[class]; !ok && class != "random" {
			return fmt.Errorf("-victims: unknown victim class %q", class)
		}
	}
	return nil
}

// victimGens maps every -victims class but "random" to its generator.
func victimGens() map[string]func(*stats.RNG, int) workload.Spec {
	gens := map[string]func(*stats.RNG, int) workload.Spec{}
	for _, g := range workload.Generators() {
		gens[g.Class] = g.Make
	}
	gens["sql"] = workload.SQLDatabase
	gens["speccpu"] = workload.SpecCPU
	return gens
}

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	victims := flag.String("victims", "memcached", "comma-separated victim classes, or 'random'")
	advVCPUs := flag.Int("adv-vcpus", 4, "adversarial VM size in vCPUs")
	iters := flag.Int("iters", 6, "maximum detection iterations")
	profilesIn := flag.String("profiles", "", "load training profiles from this JSON file instead of retraining")
	profilesOut := flag.String("save-profiles", "", "write the training profiles to this JSON file and exit")
	isoName := flag.String("isolation", "none", "host isolation: none, pinning, partitioned, core")
	flag.Parse()
	classes := strings.Split(*victims, ",")
	for i := range classes {
		classes[i] = strings.TrimSpace(classes[i])
	}
	if err := checkFlags(*iters, *advVCPUs, classes); err != nil {
		fmt.Fprintf(os.Stderr, "boltctl: %v\n", err)
		os.Exit(2)
	}

	var isoCfg isolation.Config
	switch *isoName {
	case "none":
	case "pinning":
		isoCfg = isolation.Config{Platform: isolation.VMs, ThreadPinning: true}
	case "partitioned":
		isoCfg = isolation.Config{Platform: isolation.VMs, ThreadPinning: true,
			NetPartition: true, MemBWPartition: true, CachePartition: true}
	case "core":
		isoCfg = isolation.Config{Platform: isolation.VMs, ThreadPinning: true,
			NetPartition: true, MemBWPartition: true, CachePartition: true, CoreIsolation: true}
	default:
		fmt.Fprintf(os.Stderr, "boltctl: unknown isolation %q\n", *isoName)
		os.Exit(2)
	}
	isoCfg.Platform = isolation.VMs
	srvCfg := sim.ServerConfig{}
	if *isoName != "none" {
		srvCfg = isoCfg.ServerConfig(8, 2)
	}

	rng := stats.NewRNG(*seed)
	gens := victimGens()

	var det *core.Detector
	if *profilesIn != "" {
		f, err := os.Open(*profilesIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boltctl: %v\n", err)
			os.Exit(1)
		}
		det, err = core.LoadProfiles(f, core.Config{MaxIterations: *iters})
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "boltctl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("boltctl: loaded %d training profiles from %s\n", len(det.Profiles()), *profilesIn)
	} else {
		fmt.Println("boltctl: training detector on the 120-application training set...")
		det = core.Train(workload.TrainingSpecs(*seed), core.Config{MaxIterations: *iters})
	}
	if *profilesOut != "" {
		f, err := os.Create(*profilesOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boltctl: %v\n", err)
			os.Exit(1)
		}
		err = det.SaveProfiles(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "boltctl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("boltctl: wrote training profiles to %s\n", *profilesOut)
		return
	}

	host := sim.NewServer("host-0", srvCfg)
	var placed []workload.Spec
	for i, class := range classes {
		var spec workload.Spec
		if class == "random" {
			g := workload.Generators()[rng.Intn(len(workload.Generators()))]
			spec = g.Make(rng.Split(), rng.Intn(24))
		} else {
			spec = gens[class](rng.Split(), rng.Intn(24))
		}
		app := workload.NewApp(spec, workload.DefaultPattern(spec.Class, rng.Split()), rng.Uint64())
		vm := &sim.VM{ID: fmt.Sprintf("victim-%d", i), VCPUs: 3 + rng.Intn(3), App: app}
		if err := host.Place(vm); err != nil {
			fmt.Fprintf(os.Stderr, "boltctl: placing %s: %v\n", spec.Label, err)
			os.Exit(1)
		}
		placed = append(placed, spec)
		fmt.Printf("  placed victim %-24s (%d vCPUs)\n", spec.Label, vm.VCPUs)
	}

	adv := probe.NewAdversary("bolt", *advVCPUs, probe.Config{}, rng.Split())
	if err := host.Place(adv.VM); err != nil {
		fmt.Fprintf(os.Stderr, "boltctl: placing adversary: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  injected adversarial VM (%d vCPUs)\n\n", *advVCPUs)

	det2 := det.Detect(host, adv, 0, len(placed))
	fmt.Printf("detection: %d iteration(s), %.1fs simulated, core shared: %v, shutter: %v\n\n",
		det2.Iterations, det2.Ticks.Seconds(), det2.CoreShared, det2.UsedShutter)

	fmt.Println("similarity distribution (single-victim hypothesis):")
	top := det2.Result.Matches
	if len(top) > shownMatches {
		top = top[:shownMatches]
	}
	for _, m := range top {
		fmt.Printf("  %-26s %5.1f%%\n", m.Label, 100*m.Similarity)
	}

	fmt.Println("\ndisentangled co-residents:")
	for i, r := range det2.CoResidents {
		fmt.Printf("  #%d %-26s (similarity %.2f)\n", i+1, r.Best().Label, r.Best().Similarity)
	}

	fmt.Println("\nrecovered resource profile (primary signal):")
	pressure := sim.FromSlice(det2.Result.Pressure)
	for _, r := range sim.AllResources() {
		bar := strings.Repeat("#", int(pressure.Get(r)/4))
		fmt.Printf("  %-8s %5.1f%% %s\n", r, pressure.Get(r), bar)
	}

	plan := attack.PlanDoS(det2, 2)
	fmt.Println("\nDoS plan (detection-guided, migration-evading):")
	for _, r := range plan.Targets {
		fmt.Printf("  stress %-8s at %.0f%% intensity\n", r, plan.Intensity.Get(r))
	}
	fmt.Printf("  adversary CPU cost: %.0f%% (defence trigger: 70%%)\n", plan.AdversaryCPU())

	fmt.Println("\nground truth:")
	for _, spec := range placed {
		fmt.Printf("  %-26s dominant resource %s\n", spec.Label, spec.Base.Dominant())
	}
}
