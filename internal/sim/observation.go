package sim

import "math"

// This file is the server's observation plane: every query about what a VM
// can see or feel at a tick — ObservedPressure, ObservedVector, Slowdown,
// CPUUtilization, HostDemand — is answered from a per-(Server, Tick)
// demand snapshot in which each VM's demand for each resource was
// evaluated at most once. The cached paths reproduce the original
// per-resource loops operation for operation (same summation order, same
// clamping), so results are bit-identical to evaluating demands inline.
//
// Snapshot lifetime and invalidation:
//
//   - the snapshot is keyed by (tick, server epoch, the demand of every
//     RetunableDemander on the host). Place/Remove bump the epoch; a
//     retunable demander (probe kernels) is asked for Demand(tick) again
//     before each use and compared bit for bit with the vector taken with
//     the key. Any mismatch discards every entry, so demanders that derive
//     their output from co-residents (workload.Reactive) are re-evaluated
//     whenever any of their inputs could have changed. No counter stands
//     in for the demand, so there is no bump a retune could forget, and a
//     retune undone before the next observation keeps the snapshot. Which
//     VMs are retunable is resolved only when the epoch changes (a placed
//     VM's App is never reassigned); a host with none reads nothing extra.
//
//   - the snapshot is filled by resource. Each query names the entries it
//     reads: ObservedPressure reads {r}, plus LLC for MemBW with an
//     observer (the squeeze and the spill factor read it); CPUUtilization
//     reads {CPU}; HostDemand reads the set its caller names;
//     ObservedVector and Slowdown read all ten.
//     A query whose entries are not all filled runs one pass over the VMs
//     in placement order, calling DemandInto with what is missing, and
//     fills along with it the resources the previous key's queries read
//     (the working set): a fleet monitor that reads two uncore resources
//     per tick pays one two-resource pass per tick, not a ten-resource
//     one, and not one pass per resource.
//
//   - a Demander must not call the server's cached observation methods
//     from inside a fill; re-entrant evaluation (Reactive's one-step
//     relaxation) must use InterferenceLive, which never touches the
//     snapshot. The plane carries a `building` flag and panics when a
//     Demander breaks this rule. ObservedCorePressure is the one query
//     that only rides the snapshot: it reads it when its resource is
//     already filled and evaluates live otherwise. A resource counts as
//     filled only once its pass is complete, so a reader that re-enters
//     during a fill never sees a half-filled column.
//
// Reactive re-entrancy contract: workload.Reactive computes its demand
// from the interference its host reports, which in turn depends on the
// co-residents' demands — a cycle Reactive breaks with a one-step
// relaxation (nested evaluations answer with raw demand). That nested view
// is *different* from the top-level one and must never be served from (or
// written to) the snapshot; InterferenceLive exists precisely for it. The
// snapshot only ever stores top-level demands, which are deterministic for
// a fixed (tick, epoch, retunable demands) key, so one evaluation per VM
// per tick is exact.

// ObservationFault intercepts the observation plane's single-resource
// sensor readings for one designated observer VM. internal/fault's
// corruption class implements it to spike individual readings; the
// interface lives here because sim cannot import fault.
type ObservationFault interface {
	// Perturb receives the true reading v the observer would get for
	// resource r at tick t and returns the (possibly corrupted) value the
	// observer actually sees, still within [0, 100].
	Perturb(observer *VM, r Resource, t Tick, v float64) float64
}

// SetObservationFault installs f as the sensor-fault hook for readings
// taken by observer; a nil f clears the hook. The hook applies only to
// ObservedPressure/ObservedCorePressure queries whose observer matches the
// registered VM — other VMs' observations and the interference physics
// (ObservedVector, Slowdown, HostDemand) are never touched:
// faults corrupt what the probe *reads*, not what co-residents *feel*.
func (s *Server) SetObservationFault(observer *VM, f ObservationFault) {
	s.obsFaultVM, s.obsFault = observer, f
}

// faulted passes a sensor reading through the fault hook when the query
// came from the registered observer. With no hook installed (every run at
// fault rate 0) it is a branch and a return.
//
//bolt:hotpath
func (s *Server) faulted(observer *VM, r Resource, t Tick, v float64) float64 {
	if s.obsFault != nil && observer == s.obsFaultVM {
		return s.obsFault.Perturb(observer, r, t, v)
	}
	return v
}

// obsPlane is the per-server demand snapshot.
type obsPlane struct {
	tick     Tick
	epoch    uint64
	valid    bool
	building bool
	// have holds the resources whose entries are filled at this key, used
	// the resources queried at this key, and want the previous key's used:
	// the working set a fill at this key takes along.
	have, used, want ResourceSet
	// demand[i][r] is s.vms[i].App.Demand(tick)[r] for every r in have;
	// other entries are stale. retunable lists the VMs whose App is a
	// RetunableDemander, each with its whole Demand(tick) as it was when
	// the key was taken; it is resolved when the epoch changes, since only
	// Place and Remove change s.vms. A host of plain demanders lists none,
	// so its plane is one allocation, made at its first observation.
	demand    []Vector
	retunable []keyedDemand
}

// keyedDemand is one RetunableDemander on the host and its demand at the
// snapshot's key.
type keyedDemand struct {
	app    RetunableDemander
	demand Vector
}

// resolve sizes the plane for vms and lists which of them are
// RetunableDemanders; observation calls it only when the epoch moves.
func (o *obsPlane) resolve(vms []*VM) {
	n := len(vms)
	if cap(o.demand) < n {
		o.demand = make([]Vector, n)
	}
	o.demand = o.demand[:n]
	o.retunable = o.retunable[:0]
	for _, vm := range vms {
		if d, ok := vm.App.(RetunableDemander); ok {
			o.retunable = append(o.retunable, keyedDemand{app: d})
		}
	}
}

// retunablesCurrent reports whether every retunable demander still
// demands, bit for bit, what it did when the key was taken.
//
//bolt:hotpath
func (o *obsPlane) retunablesCurrent() bool {
	for i := range o.retunable {
		e := &o.retunable[i]
		now := e.app.Demand(o.tick)
		for r := range now {
			if math.Float64bits(now[r]) != math.Float64bits(e.demand[r]) {
				return false
			}
		}
	}
	return true
}

// current reports whether the snapshot's key is (t, the server's epoch,
// the retunable VMs' present demands).
//
//bolt:hotpath
func (o *obsPlane) current(s *Server, t Tick) bool {
	return o.valid && o.tick == t && o.epoch == s.epoch && o.retunablesCurrent()
}

// observation returns the snapshot for tick t with at least the entries
// of need filled. On a new key it drops every entry and carries the old
// key's queried set forward as the working set; when need is not all
// filled it runs one pass over the VMs that fills need and the working
// set together. It panics when called while a fill is in progress: the
// nested view a re-entrant Demander needs differs from the snapshot's (see
// the file comment), so serving either from the other's path would be
// wrong.
//
//bolt:hotpath
func (s *Server) observation(t Tick, need ResourceSet) *obsPlane {
	o := &s.obs
	if o.building {
		panic("sim: Demander re-entered the cached observation plane; use InterferenceLive")
	}
	if !o.current(s, t) {
		if !o.valid || o.epoch != s.epoch {
			o.resolve(s.vms)
		}
		for i := range o.retunable {
			o.retunable[i].demand = o.retunable[i].app.Demand(t)
		}
		o.tick, o.epoch, o.valid = t, s.epoch, true
		o.want, o.used, o.have = o.used, 0, 0
	}
	o.used |= need
	if need&^o.have == 0 {
		return o
	}
	fill := (need | o.want) &^ o.have
	o.building = true
	for i, vm := range s.vms {
		vm.App.DemandInto(t, &o.demand[i], fill)
	}
	o.building = false
	o.have |= fill
	return o
}

// freshObservation returns the snapshot only if it is already valid for
// tick t with resource r filled; it never triggers a fill. Used by
// per-core queries, whose live cost is limited to the VMs on one core —
// cheaper than a whole-host pass when nothing else observes this tick.
//
//bolt:hotpath
func (s *Server) freshObservation(t Tick, r Resource) *obsPlane {
	o := &s.obs
	if o.have.Has(r) && o.current(s, t) {
		return o
	}
	return nil
}

// squeezeFor returns the observer's cache-squeeze coefficient for the
// MemBW coupling term, reading the observer's demand from the snapshot
// when it is placed on this server (the common case).
//
//bolt:hotpath
func (s *Server) squeezeFor(o *obsPlane, observer *VM, t Tick) float64 {
	if observer == nil {
		return 0
	}
	for i, vm := range s.vms {
		if vm == observer {
			return o.demand[i].Get(LLC) / 100 * s.vis.Get(LLC)
		}
	}
	return observer.App.Demand(t)[LLC] / 100 * s.vis.Get(LLC)
}

// ObservedPressure returns the contention a probe inside observer sees on
// resource r at time t: the (approximately additive, §3.3) sum of the
// co-residents' demand, attenuated by the host's isolation visibility. Core
// resources are visible only from VMs sharing a physical core with the
// source of the pressure; uncore resources are visible host-wide.
//
// Memory bandwidth carries a second-order term: when the observer itself
// occupies LLC capacity, the co-residents' miss rates rise and their DRAM
// traffic grows in proportion to their cache-spill factors — the coupling
// the miss-ratio-curve probe measures.
//
//bolt:hotpath
func (s *Server) ObservedPressure(observer *VM, r Resource, t Tick) float64 {
	if r.IsCore() && !s.sharesAnyCore(observer) {
		// No core-sharing neighbour contributes, so the sum is empty; skip
		// the snapshot entirely (the pre-snapshot code evaluated no demands
		// here either). The fault hook still applies: a corrupted sensor can
		// spike even when the true reading is zero.
		return s.faulted(observer, r, t, 0)
	}
	need := ResourceSet(1) << r
	if r == MemBW && observer != nil {
		// squeezeFor reads the observer's LLC, and the spill factor each
		// co-resident's LLC and MemBW.
		need |= 1 << LLC
	}
	return s.faulted(observer, r, t, s.observedPressureFrom(s.observation(t, need), observer, r, t))
}

// observedPressureFrom answers a single-resource query from the snapshot.
//
//bolt:hotpath
func (s *Server) observedPressureFrom(o *obsPlane, observer *VM, r Resource, t Tick) float64 {
	squeeze := 0.0
	if r == MemBW {
		squeeze = s.squeezeFor(o, observer, t)
	}
	total := 0.0
	for i, vm := range s.vms {
		if vm == observer {
			continue
		}
		if r.IsCore() && !s.SharesCore(observer, vm) {
			continue
		}
		demand := &o.demand[i]
		total += demand.Get(r)
		if squeeze > 0 {
			total += demand.Get(LLC) * CacheSpillFactor(demand) * squeeze * SpillScale
		}
	}
	total *= s.vis.Get(r)
	if total > 100 {
		total = 100
	}
	return total
}

// ObservedCorePressure returns the contention a probe pinned to the given
// physical core sees on core-private resource r: only the sibling
// hyperthreads of that specific core contribute. Because no hyperthread is
// shared between VMs, this signal belongs to (at most) one co-resident per
// core — the property §3.3 exploits to measure core pressure accurately in
// a mixture. It rides the snapshot when r is already filled but never
// forces a fill: its live cost is bounded by the VMs on one core, each
// asked for resource r alone.
//
//bolt:hotpath
func (s *Server) ObservedCorePressure(observer *VM, coreIdx int, r Resource, t Tick) float64 {
	if !r.IsCore() {
		// ObservedPressure applies the fault hook itself.
		return s.ObservedPressure(observer, r, t)
	}
	total := 0.0
	if o := s.freshObservation(t, r); o != nil {
		for i, vm := range s.vms {
			if vm != observer && vm.occupiesCore(coreIdx) {
				total += o.demand[i].Get(r)
			}
		}
	} else {
		// Each sibling is asked for r alone, into the server's buffer. A
		// read re-entered from one of those DemandInto calls must leave
		// the buffer to the outer read, so it reads whole vectors.
		nested := s.coreReading
		s.coreReading = true
		for _, vm := range s.vms {
			if vm != observer && vm.occupiesCore(coreIdx) {
				if nested {
					total += vm.App.Demand(t)[r]
					continue
				}
				vm.App.DemandInto(t, &s.coreDemand, 1<<r)
				total += s.coreDemand[r]
			}
		}
		s.coreReading = nested
	}
	total *= s.vis.Get(r)
	if total > 100 {
		total = 100
	}
	return s.faulted(observer, r, t, total)
}

// accumulateObserved folds one VM's demand into the per-resource running
// sums of a fused full-vector pass. Within each resource the sums receive
// their contributions in placement order — the same floating-point
// operation sequence as the original one-resource-at-a-time loops, so the
// fused pass is bit-identical to them.
//
//bolt:hotpath
func accumulateObserved(totals *[NumResources]float64, demand *Vector, shares bool, squeeze float64) {
	for ri := 0; ri < NumResources; ri++ {
		r := Resource(ri)
		if r.IsCore() && !shares {
			continue
		}
		totals[ri] += demand.Get(r)
		if r == MemBW && squeeze > 0 {
			totals[ri] += demand.Get(LLC) * CacheSpillFactor(demand) * squeeze * SpillScale
		}
	}
}

// finishObserved applies visibility attenuation and the 100-percent clamp
// to the accumulated sums.
//
//bolt:hotpath
func (s *Server) finishObserved(totals *[NumResources]float64) Vector {
	var v Vector
	for ri := 0; ri < NumResources; ri++ {
		total := totals[ri] * s.vis.Get(Resource(ri))
		if total > 100 {
			total = 100
		}
		v.Set(Resource(ri), total)
	}
	return v
}

// observedVectorFrom is the fused full-vector pass over the snapshot.
//
//bolt:hotpath
func (s *Server) observedVectorFrom(o *obsPlane, observer *VM, t Tick) Vector {
	squeeze := s.squeezeFor(o, observer, t)
	var totals [NumResources]float64
	for i, vm := range s.vms {
		if vm == observer {
			continue
		}
		accumulateObserved(&totals, &o.demand[i], s.SharesCore(observer, vm), squeeze)
	}
	return s.finishObserved(&totals)
}

// ObservedVector returns ObservedPressure for every resource at once, in a
// single fused pass over the snapshot.
//
//bolt:hotpath
func (s *Server) ObservedVector(observer *VM, t Tick) Vector {
	return s.observedVectorFrom(s.observation(t, EveryResource), observer, t)
}

// InterferenceLive is ObservedVector — the contention pressure a victim
// experiences from all co-residents, the input to the slowdown and latency
// models — computed directly from the VMs' current demands, bypassing the
// per-tick snapshot. It exists for demanders that evaluate their own output
// from the host's state — workload.Reactive's one-step relaxation calls it
// while the snapshot may be mid-build, and the values it sees there (raw
// demand from the VM being computed, full demand from everyone else) are
// deliberately different from the top-level snapshot view.
//
//bolt:hotpath
func (s *Server) InterferenceLive(victim *VM, t Tick) Vector {
	squeeze := 0.0
	if victim != nil {
		squeeze = victim.App.Demand(t)[LLC] / 100 * s.vis.Get(LLC)
	}
	var totals [NumResources]float64
	for _, vm := range s.vms {
		if vm == victim {
			continue
		}
		demand := vm.App.Demand(t)
		accumulateObserved(&totals, &demand, s.SharesCore(victim, vm), squeeze)
	}
	return s.finishObserved(&totals)
}

// Slowdown returns the victim's execution-time dilation factor (≥1) at time
// t under the host's current co-residents. For each resource the demand
// beyond capacity is charged to the victim in proportion to its sensitivity;
// contention on the victim's critical resources therefore hurts far more
// than the same contention elsewhere — the asymmetry Bolt's DoS attack
// exploits (§5.1).
//
//bolt:hotpath
func (s *Server) Slowdown(victim *VM, t Tick) float64 {
	o := s.observation(t, EveryResource)
	demand, found := Vector{}, false
	for i, vm := range s.vms {
		if vm == victim {
			demand, found = o.demand[i], true
			break
		}
	}
	if !found {
		demand = victim.App.Demand(t)
	}
	return SlowdownFor(demand, victim.App.Sensitivity(), s.observedVectorFrom(o, victim, t))
}

// SlowdownFor is the contention arithmetic behind Server.Slowdown, exposed
// so reactive workload models can evaluate it against a hypothetical
// demand without re-entering the server.
//
//bolt:hotpath
func SlowdownFor(demand, sens, interference Vector) float64 {
	slow := 1.0
	for r := Resource(0); r < NumResources; r++ {
		overload := demand.Get(r) + interference.Get(r) - 100
		if overload <= 0 {
			continue
		}
		slow += sens.Get(r) * overload / 100 * slowdownWeight(r)
	}
	return slow
}

// slowdownWeight scales how much saturating each resource costs. Cache and
// memory contention dominate execution-time impact on the paper's
// workloads; capacity resources degrade more gently until exhausted.
//
//bolt:hotpath
func slowdownWeight(r Resource) float64 {
	switch r {
	case L1I, L1D, LLC:
		return 4
	case L2:
		return 2
	case MemBW, CPU:
		return 3
	case NetBW, DiskBW:
		return 2.5
	case MemCap, DiskCap:
		return 1.5
	}
	return 1
}

// CPUUtilization returns the host's aggregate CPU usage in percent at time
// t — the signal a migration-triggering DoS defence watches (§5.1).
//
//bolt:hotpath
func (s *Server) CPUUtilization(t Tick) float64 {
	o := s.observation(t, 1<<CPU)
	total := 0.0
	for i := range s.vms {
		total += o.demand[i].Get(CPU)
	}
	if total > 100 {
		total = 100
	}
	return total
}

// HostDemand returns the aggregate demand of every VM on the host at time t
// for each resource in need — the provider-side view a monitor or
// scheduler samples. Each entry is folded in placement order with the
// clamped Vector.Add, the same fold whichever other entries are asked
// for; entries outside need are zero, and the plane fills them only if
// its working set asks. A monitor passes EveryResource; Quasar passes the
// resources its incoming VM demands.
//
//bolt:hotpath
func (s *Server) HostDemand(t Tick, need ResourceSet) Vector {
	o := s.observation(t, need)
	var total Vector
	for i := range s.vms {
		total.accumulate(&o.demand[i], need)
	}
	return total
}
