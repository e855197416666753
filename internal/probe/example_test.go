package probe_test

import (
	"fmt"

	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// ExampleAdversary_Ramp shows the §3.2 measurement primitive: a tunable
// microbenchmark ramps its intensity until its performance degrades, and
// the intensity at that point reveals the co-residents' pressure.
func ExampleAdversary_Ramp() {
	host := sim.NewServer("host", sim.ServerConfig{})

	// A victim exerting exactly 70% memory-bandwidth pressure.
	var demand sim.Vector
	demand.Set(sim.MemBW, 70)
	spec := workload.Spec{Label: "victim", Class: "victim", Base: demand}
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	if err := host.Place(&sim.VM{ID: "victim", VCPUs: 4, App: app}); err != nil {
		panic(err)
	}

	adv := probe.NewAdversary("bolt", 4, probe.Config{NoiseSD: 0.001}, stats.NewRNG(1))
	if err := host.Place(adv.VM); err != nil {
		panic(err)
	}

	m := adv.Ramp(host, sim.MemBW, 0)
	fmt.Printf("measured pressure: %.0f (truth 70)\n", m.Pressure)
	// Output:
	// measured pressure: 70 (truth 70)
}

// ExampleMaxIntensityFor shows why adversarial VMs below 4 vCPUs are blind
// (Fig. 10b): they cannot generate enough contention to sense co-residents.
func ExampleMaxIntensityFor() {
	for _, vcpus := range []int{1, 2, 4, 8} {
		fmt.Printf("%d vCPUs -> %.0f%% max intensity\n", vcpus, probe.MaxIntensityFor(vcpus))
	}
	// Output:
	// 1 vCPUs -> 25% max intensity
	// 2 vCPUs -> 50% max intensity
	// 4 vCPUs -> 100% max intensity
	// 8 vCPUs -> 100% max intensity
}
