// Package cluster implements the cluster-management substrate of the
// evaluation: a fleet of simulated servers, the least-loaded scheduler the
// paper uses by default, a Quasar-like interference-aware scheduler
// (§3.4), and the utilisation-triggered live-migration defence of §5.1.
package cluster

import (
	"errors"
	"fmt"
	"math/bits"

	"bolt/internal/sim"
)

// Scheduler picks a server for a VM.
type Scheduler interface {
	// Pick returns the index of the server to place the VM on, or -1 when
	// no server fits.
	Pick(servers []*sim.Server, vm *sim.VM, t sim.Tick) int
	// Name identifies the policy in reports.
	Name() string
}

// Cluster is a fleet of servers under one scheduler. Place, Remove and
// Migrate mutate it and need exclusive access (cluster mutation happens
// between fleet ticks); HostOf only reads, so any number of goroutines may
// call it while nothing mutates.
type Cluster struct {
	Servers []*sim.Server
	Sched   Scheduler

	// byVM maps VM id → hosting server for every VM the cluster itself
	// placed, so HostOf is O(1) for them instead of a scan over the whole
	// fleet (it mirrors Server.Lookup one level up). Only Place, Remove and
	// Migrate write it. Experiments also place and remove VMs directly on
	// servers, behind the cluster's back, so HostOf verifies an entry
	// against the server's own VM table before trusting it.
	byVM map[string]*sim.Server
}

// ErrClusterFull is returned when no server can host a VM.
var ErrClusterFull = errors.New("cluster: no server with sufficient capacity")

// New builds a cluster of n identical servers.
func New(n int, cfg sim.ServerConfig, sched Scheduler) *Cluster {
	c := &Cluster{Sched: sched}
	for i := 0; i < n; i++ {
		c.Servers = append(c.Servers, sim.NewServer(fmt.Sprintf("server-%02d", i), cfg))
	}
	return c
}

// index returns the id→server map, allocating it on first use so
// zero-value and literal-constructed Clusters work too.
func (c *Cluster) index() map[string]*sim.Server {
	if c.byVM == nil {
		c.byVM = make(map[string]*sim.Server)
	}
	return c.byVM
}

// Place schedules the VM and returns the hosting server.
func (c *Cluster) Place(vm *sim.VM, t sim.Tick) (*sim.Server, error) {
	i := c.Sched.Pick(c.Servers, vm, t)
	if i < 0 {
		return nil, ErrClusterFull
	}
	if err := c.Servers[i].Place(vm); err != nil {
		return nil, err
	}
	c.index()[vm.ID] = c.Servers[i]
	return c.Servers[i], nil
}

// HostOf returns the server hosting the VM with the given ID, or nil. A
// verified index entry answers in O(1); a VM placed or moved directly on a
// server is found by scanning the fleet. HostOf writes nothing, so fan-out
// bodies may call it concurrently.
func (c *Cluster) HostOf(id string) *sim.Server {
	if s, ok := c.byVM[id]; ok && s.Lookup(id) != nil {
		return s
	}
	for _, s := range c.Servers {
		if s.Lookup(id) != nil {
			return s
		}
	}
	return nil
}

// Remove deletes the VM from whichever server hosts it and returns that
// server, or nil when the VM is unknown.
func (c *Cluster) Remove(id string) *sim.Server {
	s := c.HostOf(id)
	if s == nil {
		return nil
	}
	s.Remove(id)
	delete(c.byVM, id)
	return s
}

// Migrate moves a VM to the least-loaded other server (the DoS defence of
// §5.1: utilisation-triggered live migration). It returns the destination,
// or an error when the VM is unknown or nothing else fits.
func (c *Cluster) Migrate(id string, t sim.Tick) (*sim.Server, error) {
	src := c.HostOf(id)
	if src == nil {
		return nil, fmt.Errorf("cluster: unknown VM %q", id)
	}
	vm := src.Lookup(id)

	best, bestFree := -1, -1
	for i, s := range c.Servers {
		if s == src {
			continue
		}
		if free := s.FreeVCPUs(); free >= vm.VCPUs && free > bestFree {
			best, bestFree = i, free
		}
	}
	if best < 0 {
		return nil, ErrClusterFull
	}
	src.Remove(id)
	if err := c.Servers[best].Place(vm); err != nil {
		// Roll back so the VM is not lost. An index entry still points at
		// src, which the rollback makes true again.
		if rbErr := src.Place(vm); rbErr != nil {
			delete(c.byVM, id)
			return nil, fmt.Errorf("cluster: migration failed (%v) and rollback failed (%v)", err, rbErr)
		}
		return nil, err
	}
	c.index()[id] = c.Servers[best]
	return c.Servers[best], nil
}

// LeastLoaded is the paper's default scheduler: it places each VM on the
// machine with the most available compute (free hyperthreads), breaking
// ties by index. It is contention-oblivious.
type LeastLoaded struct{}

// Name implements Scheduler.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Scheduler.
func (LeastLoaded) Pick(servers []*sim.Server, vm *sim.VM, _ sim.Tick) int {
	best, bestFree := -1, 0
	for i, s := range servers {
		if free := s.FreeVCPUs(); free >= vm.VCPUs && free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// Quasar is an interference-aware scheduler in the spirit of Quasar
// (Delimitrou & Kozyrakis, ASPLOS'14): it estimates each candidate host's
// contention overlap with the incoming application's critical resources
// and picks the feasible host where the overlap is smallest, so jobs with
// different critical resources end up co-scheduled.
type Quasar struct{}

// Name implements Scheduler.
func (Quasar) Name() string { return "quasar" }

// Pick implements Scheduler. It keeps the feasible host that is least in
// the order (overlap ascending, free vCPUs descending, index ascending) in
// one pass. The index makes that order total, and demands are clamped, so
// every overlap is finite: the minimum is unique and is what sorting the
// candidates would put first.
//
// A host's overlap sums demand[r] · host[r] in resource order over the
// resources the VM demands, need = {r : demand[r] != 0}, and reads only
// those entries of the host's demand. A term with demand[r] = ±0 is ±0
// whenever host[r] is finite, and adding ±0 to a sum that starts at +0
// leaves it unchanged, so dropping those terms is exact as long as no
// co-resident's demand is NaN (Vector.Set clamps every other value into
// [0, 100]). With need empty, as for a zero-demand probe VM, every
// overlap is +0, no host is read, and the pick is the feasible host with
// the most free vCPUs, lowest index first.
func (Quasar) Pick(servers []*sim.Server, vm *sim.VM, t sim.Tick) int {
	demand := vm.App.Demand(t)
	var need sim.ResourceSet
	for r := range demand {
		if demand[r] != 0 {
			need |= 1 << r
		}
	}
	best, bestOverlap, bestFree := -1, 0.0, 0
	for i, s := range servers {
		free := s.FreeVCPUs()
		if free < vm.VCPUs {
			continue
		}
		overlap := 0.0
		if need != 0 {
			// Aggregate pressure already on the host, from the host's
			// per-tick demand snapshot.
			host := s.HostDemand(t, need)
			for m := uint16(need); m != 0; m &= m - 1 {
				r := sim.Resource(bits.TrailingZeros16(m))
				overlap += demand.Get(r) * host.Get(r)
			}
		}
		if best < 0 || overlap < bestOverlap || (overlap == bestOverlap && free > bestFree) {
			best, bestOverlap, bestFree = i, overlap, free
		}
	}
	return best
}

// ReadsHostDemand reports whether placing a VM under sched reads its
// co-residents' demand: Quasar reads it on every feasible host whenever
// the VM demands anything, and an Affinity scheduler reads it wherever its
// fallback does. A caller that seeds a fleet can warm what such a pick will
// read while it still holds each server alone.
func ReadsHostDemand(sched Scheduler) bool {
	switch s := sched.(type) {
	case Quasar:
		return true
	case *Affinity:
		return ReadsHostDemand(s.Fallback)
	}
	return false
}

// MigrationPolicy is the DoS defence: when a host's CPU utilisation
// exceeds Threshold, its most CPU-hungry victim VM is migrated to an
// unloaded host, with an outage of OutageTicks (the paper measures ~8 s).
type MigrationPolicy struct {
	Threshold   float64  // percent CPU; paper uses 70
	OutageTicks sim.Tick // migration blackout; paper observes 8 s
}

// DefaultMigrationPolicy mirrors the experimental setup of §5.1.
func DefaultMigrationPolicy() MigrationPolicy {
	return MigrationPolicy{Threshold: 70, OutageTicks: 8 * sim.TicksPerSecond}
}

// ShouldMigrate reports whether the host's utilisation at time t trips the
// policy.
func (p MigrationPolicy) ShouldMigrate(s *sim.Server, t sim.Tick) bool {
	return s.CPUUtilization(t) > p.Threshold
}
