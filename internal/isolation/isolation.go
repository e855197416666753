// Package isolation models the resource-isolation mechanisms evaluated in
// §6 of the paper: the three OS-level settings (baremetal, Linux
// containers, virtual machines) and the five resource-specific techniques
// layered on top (thread pinning, network bandwidth partitioning, memory
// bandwidth isolation, last-level-cache partitioning, and core isolation).
//
// Each mechanism attenuates the contention observable on specific shared
// resources — a partitioned LLC leaks almost nothing about a co-resident's
// cache footprint — which is exactly how the paper measures their value:
// by how far they reduce Bolt's detection accuracy (Fig. 14). Core
// isolation additionally changes placement (no core is ever shared between
// applications) and carries the performance and utilisation costs the
// paper quantifies (34% average slowdown, or a 45% utilisation drop when
// over-provisioning instead).
package isolation

import (
	"bolt/internal/sim"
)

// Platform is the OS-level virtualisation setting.
type Platform int

// The three settings of §6.
const (
	Baremetal Platform = iota
	Containers
	VMs
)

// String returns the display name used in Fig. 14.
func (p Platform) String() string {
	switch p {
	case Baremetal:
		return "baremetal"
	case Containers:
		return "containers"
	case VMs:
		return "VMs"
	}
	return "unknown"
}

// Platforms lists the settings in the paper's order.
func Platforms() []Platform { return []Platform{Baremetal, Containers, VMs} }

// Config is one point in the isolation design space: a platform plus the
// set of enabled mechanisms. Mechanisms are cumulative in Fig. 14 —
// "+Mem BW partitioning" means pinning and network partitioning are on
// too — but each flag here is independent so ablations can isolate one.
type Config struct {
	Platform       Platform
	ThreadPinning  bool
	NetPartition   bool // qdisc/HTB egress bandwidth limits
	MemBWPartition bool // scheduler-enforced aggregate memory bandwidth caps
	CachePartition bool // Intel CAT way-partitioning of the LLC
	CoreIsolation  bool // an application shares cores only with itself
}

// Visibility returns the per-resource attenuation of observable contention
// under this configuration, starting from the platform's baseline. 1 means
// contention passes through untouched; 0 means the resource leaks nothing.
func (c Config) Visibility() sim.Vector {
	var v sim.Vector
	for i := range v {
		v[i] = 1
	}
	set := func(r sim.Resource, f float64) {
		v[r] *= f
	}

	switch c.Platform {
	case Containers:
		// cgroups bound memory capacity and smooth CPU contention.
		set(sim.MemCap, 0.5)
		set(sim.CPU, 0.85)
	case VMs:
		// The hypervisor constrains memory capacity harder and adds a
		// scheduling layer over the cores.
		set(sim.MemCap, 0.38)
		set(sim.CPU, 0.75)
		set(sim.L2, 0.9)
	}

	if c.ThreadPinning {
		// Pinning removes context-switch interference, the OS scheduler's
		// contribution to core-resource contention. Hyperthread siblings
		// still contend directly, so much of the signal survives (§6).
		for _, r := range sim.CoreResources() {
			set(r, 0.75)
		}
	}
	if c.NetPartition {
		// HTB enforces egress ceilings; bursts below the ceiling and
		// ingress traffic still leak.
		set(sim.NetBW, 0.35)
	}
	if c.MemBWPartition {
		// Scheduler-enforced aggregate caps are coarse (§6 uses them only
		// to highlight the benefit of true DRAM-bandwidth isolation).
		set(sim.MemBW, 0.45)
	}
	if c.CachePartition {
		// CAT gives each tenant private ways; partition resizing and
		// shared-way slack leak a little.
		set(sim.LLC, 0.15)
		set(sim.L2, 0.85)
	}
	if c.CoreIsolation {
		// No foreign hyperthread ever shares a core; nothing to observe on
		// core-private resources. (Placement also changes; see ServerConfig.)
		for _, r := range sim.CoreResources() {
			set(r, 0)
		}
	}
	return v
}

// ServerConfig returns the sim.ServerConfig realising this isolation
// configuration on a host with the given topology.
func (c Config) ServerConfig(cores, threadsPerCore int) sim.ServerConfig {
	v := c.Visibility()
	return sim.ServerConfig{
		Cores:          cores,
		ThreadsPerCore: threadsPerCore,
		Visibility:     &v,
		DedicatedCores: c.CoreIsolation,
	}
}

// PerfPenalty returns the execution-time dilation applications suffer
// under this configuration. Core isolation forces threads of the same job
// onto shared cores, costing 34% on average (§6); the other mechanisms are
// modelled as performance-neutral, as in the paper's discussion.
func (c Config) PerfPenalty() float64 {
	if c.CoreIsolation {
		return 1.34
	}
	return 1
}

// UtilizationPenalty returns the fraction of cluster capacity sacrificed
// when users over-provision to avoid the core-isolation slowdown instead
// of absorbing it (§6 reports a 45% utilisation drop).
func (c Config) UtilizationPenalty() float64 {
	if c.CoreIsolation {
		return 0.45
	}
	return 0
}

// Stack returns the cumulative mechanism progression of Fig. 14 for one
// platform: none → thread pinning → +net BW → +mem BW → +cache
// partitioning → +core isolation.
func Stack(p Platform) []Config {
	none := Config{Platform: p}
	pin := none
	pin.ThreadPinning = true
	net := pin
	net.NetPartition = true
	mem := net
	mem.MemBWPartition = true
	cache := mem
	cache.CachePartition = true
	core := cache
	core.CoreIsolation = true
	return []Config{none, pin, net, mem, cache, core}
}

// StackLabels names the six steps of the Fig. 14 progression.
func StackLabels() []string {
	return []string{
		"none",
		"thread pinning",
		"+net BW partitioning",
		"+mem BW partitioning",
		"+cache partitioning",
		"+core isolation",
	}
}

// CoreIsolationOnly returns the configuration the paper's closing note
// evaluates: core isolation enforced with no other mechanism (detection
// accuracy stays at 46%, so core isolation alone is insufficient).
func CoreIsolationOnly(p Platform) Config {
	return Config{Platform: p, CoreIsolation: true}
}
