package cluster

import (
	"bolt/internal/sim"
)

// Affinity is a Kubernetes-style affinity-honouring scheduler: tenants may
// attach labels to their VMs, and a VM may request co-location with a
// label, which the scheduler satisfies whenever any feasible host already
// runs a VM carrying it. This is the steering surface Repttack-style
// attacks exploit — an adversary who can name (or guess) a victim's label
// turns the scheduler itself into a co-location oracle, replacing the
// launch-and-pray placement race of the classic attacks.
//
// VMs with no affinity request fall through to the Fallback policy, so an
// Affinity cluster behaves exactly like its fallback for the background
// population.
type Affinity struct {
	// Fallback places VMs that carry no affinity request (nil means
	// LeastLoaded).
	Fallback Scheduler

	carriers map[string][]string // label → ids of the VMs carrying it, in Label order
	wants    map[string]string   // VM id → label the VM asks to co-locate with
}

// NewAffinity builds an affinity scheduler over the given fallback.
func NewAffinity(fallback Scheduler) *Affinity {
	if fallback == nil {
		fallback = LeastLoaded{}
	}
	return &Affinity{
		Fallback: fallback,
		carriers: map[string][]string{},
		wants:    map[string]string{},
	}
}

// Label attaches a label to the VM with the given id (the victim-side
// deployment metadata an attacker references). A VM may carry several
// labels, as a Kubernetes pod does: labelling it again adds the label, and
// the VM counts as a carrier of each.
func (a *Affinity) Label(vmID, label string) {
	a.carriers[label] = append(a.carriers[label], vmID)
}

// Want records that the VM with the given id requests co-location with
// hosts running a VM carrying label (the attacker-side affinity rule).
func (a *Affinity) Want(vmID, label string) { a.wants[vmID] = label }

// Name implements Scheduler.
func (a *Affinity) Name() string { return "affinity" }

// Pick implements Scheduler: among feasible hosts already running a VM
// with the requested label, it picks the one with the most free compute
// (ties to the lowest index, mirroring LeastLoaded); with no request, or
// no feasible labelled host, it delegates to the fallback. A host counts
// as labelled when it runs any of the label's carriers.
func (a *Affinity) Pick(servers []*sim.Server, vm *sim.VM, t sim.Tick) int {
	if want := a.wants[vm.ID]; want != "" {
		carriers := a.carriers[want]
		best, bestFree := -1, 0
		for i, s := range servers {
			free := s.FreeVCPUs()
			if free < vm.VCPUs || free <= bestFree {
				continue
			}
			for _, id := range carriers {
				if s.Lookup(id) != nil {
					best, bestFree = i, free
					break
				}
			}
		}
		if best >= 0 {
			return best
		}
	}
	return a.Fallback.Pick(servers, vm, t)
}
