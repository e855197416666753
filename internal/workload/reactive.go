package workload

import "bolt/internal/sim"

// Reactive wraps an App with the feedback loop real applications exhibit
// under contention: when the app stalls on a saturated resource, its
// progress rate drops and so does the pressure it places on every
// *other* resource. This is the dynamic resource-freeing attacks exploit
// (§5.2): saturate the victim's critical resource and its remaining
// resources free up for the beneficiary.
//
// Reactive implements sim.Demander. It must be bound to its host with Bind
// after placement; unbound it behaves like the raw App.
type Reactive struct {
	App *App

	host      *sim.Server
	vm        *sim.VM
	computing bool
}

// NewReactive wraps the app.
func NewReactive(app *App) *Reactive { return &Reactive{App: app} }

// Bind attaches the wrapper to its placement. Call it once the VM is on a
// server.
func (r *Reactive) Bind(host *sim.Server, vm *sim.VM) {
	r.host = host
	r.vm = vm
}

// Demand implements sim.Demander. The raw demand is attenuated by the
// slowdown the app currently suffers, except on the resources that are
// themselves saturated — the app keeps pushing on the resource it is
// stalled on while everything else drains.
//
// Evaluating the slowdown requires the co-residents' demand, which may in
// turn be Reactive; the computing flag breaks that cycle by answering with
// the raw demand during a nested evaluation (a one-step relaxation of the
// fixed point, deterministic and plenty accurate for this model).
//
// The nested evaluation goes through sim.Server.InterferenceLive, never
// the cached ObservedVector: the host's observation plane may be mid-build
// when it evaluates this VM's demand, and the values the relaxation must
// see (this VM answering with raw demand, everyone else with their full
// demand) are by design different from the top-level snapshot view. See
// the observation-plane contract in internal/sim/observation.go.
func (r *Reactive) Demand(t sim.Tick) sim.Vector {
	raw := r.App.Demand(t)
	if r.host == nil || r.vm == nil || r.computing {
		return raw
	}
	r.computing = true
	interference := r.host.InterferenceLive(r.vm, t)
	r.computing = false

	sens := r.App.Sensitivity()
	slow := sim.SlowdownFor(raw, sens, interference)
	if slow <= 1 {
		return raw
	}
	// Find the app's bottleneck: the resource contributing the most to its
	// own slowdown. The app keeps pushing there (that is where it is
	// stalled) while its pressure everywhere else drains with its progress
	// rate.
	bottleneck, bottleneckShare := sim.Resource(-1), 0.0
	for _, res := range sim.AllResources() {
		overload := raw.Get(res) + interference.Get(res) - 100
		if overload <= 0 {
			continue
		}
		share := sens.Get(res) * overload
		if share > bottleneckShare {
			bottleneck, bottleneckShare = res, share
		}
	}
	var out sim.Vector
	for _, res := range sim.AllResources() {
		if res == bottleneck {
			out.Set(res, raw.Get(res))
			continue
		}
		out.Set(res, raw.Get(res)/slow)
	}
	return out
}

// DemandInto implements sim.Demander. The attenuation couples every
// resource through the slowdown, so it writes the whole vector.
func (r *Reactive) DemandInto(t sim.Tick, out *sim.Vector, _ sim.ResourceSet) {
	*out = r.Demand(t)
}

// Sensitivity implements sim.Demander.
func (r *Reactive) Sensitivity() sim.Vector { return r.App.Sensitivity() }

var _ sim.Demander = (*Reactive)(nil)
