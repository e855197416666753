package cluster

import "bolt/internal/sim"

// PSSF is a co-residence-aware secure allocator in the spirit of the
// "previously-selected servers first" policy from the energy-efficient
// cloud defence literature: the fleet is partitioned into fixed server
// groups, every tenant is pinned to one group, and within the group a
// tenant's VMs land first on servers the tenant already occupies
// ("previously selected"), then on the candidate with the lowest
// co-residence exposure — the number of distinct *other* tenants the
// placement would put the VM next to.
//
// The security argument is structural: an attacker tenant is pinned to its
// own group, so no launch strategy — bulk, trickle, affinity steering —
// can reach a victim pinned to a different group. The cost is the one the
// defence papers accept: placement freedom (and with it some utilisation)
// is traded for a hard bound on which tenant pairs can ever share a host.
//
// PSSF ignores affinity hints entirely; it does not consult any
// co-location request channel, which is exactly what closes the
// Repttack-style steering surface.
type PSSF struct {
	// GroupSize is the number of consecutive servers per group; 0 means 16.
	GroupSize int
	// TenantOf maps a VM id to its owning tenant; nil means the id prefix
	// before the first '-' (the convention the experiments use: "victim-3"
	// belongs to tenant "victim").
	TenantOf func(vmID string) string

	groups map[string]int // tenant → assigned group index
	counts []int          // tenants assigned per group
}

// NewPSSF builds the scheduler. State (tenant→group pinning) accumulates
// across placements, so use a fresh PSSF per experiment run.
func NewPSSF(groupSize int) *PSSF {
	if groupSize <= 0 {
		groupSize = 16
	}
	return &PSSF{GroupSize: groupSize, groups: map[string]int{}}
}

// Name implements Scheduler.
func (p *PSSF) Name() string { return "pssf" }

// tenant resolves the owning tenant of a VM id.
func (p *PSSF) tenant(id string) string {
	if p.TenantOf != nil {
		return p.TenantOf(id)
	}
	for i := 0; i < len(id); i++ {
		if id[i] == '-' {
			return id[:i]
		}
	}
	return id
}

// groupOf returns the tenant's pinned group, assigning the least-populated
// group (ties to the lowest index) on first contact. Group count follows
// the current fleet size, so one PSSF value must only ever schedule for
// one cluster.
func (p *PSSF) groupOf(tenant string, nServers int) int {
	ngroups := (nServers + p.GroupSize - 1) / p.GroupSize
	if ngroups < 1 {
		ngroups = 1
	}
	if len(p.counts) < ngroups {
		p.counts = append(p.counts, make([]int, ngroups-len(p.counts))...)
	}
	if g, ok := p.groups[tenant]; ok {
		return g
	}
	best := 0
	for g := 1; g < ngroups; g++ {
		if p.counts[g] < p.counts[best] {
			best = g
		}
	}
	p.groups[tenant] = best
	p.counts[best]++
	return best
}

// exposure counts the distinct tenants other than `tenant` with a VM on s —
// the number of new co-residence pairs placing one of tenant's VMs there
// could create. Deterministic: VMs are visited in placement order and only
// the count is consumed.
func (p *PSSF) exposure(s *sim.Server, tenant string) int {
	seen := map[string]bool{}
	for _, vm := range s.VMs() {
		if o := p.tenant(vm.ID); o != tenant && !seen[o] {
			seen[o] = true
		}
	}
	return len(seen)
}

// occupied reports whether the tenant already has a VM on s (a
// "previously selected" server).
func (p *PSSF) occupied(s *sim.Server, tenant string) bool {
	for _, vm := range s.VMs() {
		if p.tenant(vm.ID) == tenant {
			return true
		}
	}
	return false
}

// Pick implements Scheduler. Candidate order: feasible previously-selected
// servers in the tenant's group, then any feasible server in the group,
// then — only when the whole group is infeasible — any feasible server
// fleet-wide (confinement yields to availability, not the other way
// around). Within each tier the winner minimises exposure, breaking ties
// by most free vCPUs, then lowest index.
func (p *PSSF) Pick(c *Cluster, vm *sim.VM, _ sim.Tick) int {
	servers := c.Servers
	n := len(servers)
	if n == 0 {
		return -1
	}
	tenant := p.tenant(vm.ID)
	g := p.groupOf(tenant, n)
	lo := g * p.GroupSize
	hi := lo + p.GroupSize
	if hi > n {
		hi = n
	}

	pick := func(lo, hi int, require func(*sim.Server) bool) int {
		best, bestExp, bestFree := -1, 0, 0
		for i := lo; i < hi; i++ {
			s := servers[i]
			free := s.FreeVCPUs()
			if free < vm.VCPUs || (require != nil && !require(s)) {
				continue
			}
			exp := p.exposure(s, tenant)
			if best < 0 || exp < bestExp || (exp == bestExp && free > bestFree) {
				best, bestExp, bestFree = i, exp, free
			}
		}
		return best
	}

	if i := pick(lo, hi, func(s *sim.Server) bool { return p.occupied(s, tenant) }); i >= 0 {
		return i
	}
	if i := pick(lo, hi, nil); i >= 0 {
		return i
	}
	return pick(0, n, nil)
}
