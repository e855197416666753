// Test fixture for the snapshotdiscipline analyzer, type-checked outside
// bolt/internal/sim so both the version-bump and the retention rules apply.
package attack

import "bolt/internal/sim"

// kern mimics probe.Kernels: Demand is served from mutable out-of-band
// state, so the type implements sim.DemandVersioner.
type kern struct {
	intensity sim.Vector
	// ceiling caps what DemandInto writes; Demand never reads it directly.
	ceiling float64
	version uint64
}

func (k *kern) Demand(sim.Tick) sim.Vector { return k.intensity }
func (k *kern) Sensitivity() sim.Vector    { return sim.Vector{} }
func (k *kern) DemandVersion() uint64      { return k.version }

// DemandInto is how the observation plane fills its snapshot, so the
// fields it reads are demand state too.
func (k *kern) DemandInto(_ sim.Tick, out *sim.Vector, need sim.ResourceSet) {
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		if need.Has(r) {
			out[r] = min(k.intensity[r], k.ceiling)
		}
	}
}

func (k *kern) Bump() { k.version++ }

// Set writes demand state and bumps — correct.
func (k *kern) Set(r sim.Resource, v float64) {
	k.intensity.Set(r, v)
	k.version++
}

// Reset writes demand state and forgets the bump.
func (k *kern) Reset() { // want `writes state read by Demand or DemandInto but never bumps the demand version`
	k.intensity = sim.Vector{}
}

// SetCeiling writes a field only DemandInto reads and forgets the bump.
func (k *kern) SetCeiling(c float64) { // want `method kern.SetCeiling writes state read by Demand or DemandInto but never bumps`
	k.ceiling = c
}

// SetQuiet deliberately skips the bump; the doc-comment suppression scopes
// to the whole method.
//
//bolt:nolint snapshotdiscipline -- callers batch several writes and call Bump() once at the end
func (k *kern) SetQuiet(r sim.Resource, v float64) {
	k.intensity.Set(r, v)
}

func retention(srv *sim.Server, vm, other *sim.VM, t sim.Tick) float64 {
	v := srv.ObservedVector(vm, t)
	_ = srv.Place(other)
	return v.Get(sim.LLC) // want `observation "v" was taken before a Place/Remove`
}

// reobserveOK observes after the placement change.
func reobserveOK(srv *sim.Server, vm, other *sim.VM, t sim.Tick) float64 {
	_ = srv.Place(other)
	v := srv.ObservedVector(vm, t)
	return v.Get(sim.LLC)
}

func beforeAfterSuppressed(srv *sim.Server, vm, other *sim.VM, t sim.Tick) float64 {
	before := srv.Slowdown(vm, t)
	_ = srv.Place(other)
	after := srv.Slowdown(vm, t)
	return after - before //bolt:nolint snapshotdiscipline -- before/after comparison: measuring the placement change is the point
}
