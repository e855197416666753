// Package sim provides the hardware substrate for the Bolt reproduction: a
// discrete-time model of a multi-tenant server with the ten shared resources
// the paper profiles, hyperthread-level core topology, contention
// arithmetic, and measurement noise.
//
// The paper measures contention on real Xeon hosts; fine-grained
// microarchitectural pressure cannot be observed faithfully from Go, so
// this package reproduces the *observable* Bolt relies on — the pressure
// vector c ∈ [0,100]^10 — including the structural couplings that shape the
// paper's results: core resources (L1i/L1d/L2/CPU) are only visible to a
// probe sharing a physical core with the victim, uncore resources (LLC,
// memory, network, disk) are visible host-wide, and concurrent co-residents
// combine approximately additively (§3.3 states Bolt assumes exactly this).
package sim

import (
	"fmt"
	"math/bits"
)

// Resource identifies one of the ten shared resources Bolt profiles (§3.2).
type Resource int

// The ten shared resources, in the order used throughout the paper.
const (
	L1I          Resource = iota // L1 instruction cache
	L1D                          // L1 data cache
	L2                           // L2 cache
	LLC                          // last level cache
	MemCap                       // memory capacity
	MemBW                        // memory bandwidth
	CPU                          // compute (functional units)
	NetBW                        // network bandwidth
	DiskCap                      // disk capacity
	DiskBW                       // disk bandwidth
	NumResources = 10
)

var resourceNames = [NumResources]string{
	"L1-i", "L1-d", "L2", "LLC", "MemCap", "MemBW", "CPU", "NetBW", "DiskCap", "DiskBW",
}

// String returns the display name used in the paper's figures.
func (r Resource) String() string {
	if r < 0 || int(r) >= NumResources {
		return fmt.Sprintf("Resource(%d)", int(r))
	}
	return resourceNames[r]
}

// AllResources lists every resource in canonical order.
func AllResources() []Resource {
	out := make([]Resource, NumResources)
	for i := range out {
		out[i] = Resource(i)
	}
	return out
}

// IsCore reports whether the resource is private to a physical core and thus
// only observable by a co-scheduled hyperthread (L1/L2 caches and the
// functional units). Uncore resources (LLC, memory, network, disk) are
// shared host-wide.
func (r Resource) IsCore() bool {
	switch r {
	case L1I, L1D, L2, CPU:
		return true
	}
	return false
}

// CoreResources returns the four core-private resources.
func CoreResources() []Resource { return []Resource{L1I, L1D, L2, CPU} }

// UncoreResources returns the six host-wide resources.
func UncoreResources() []Resource {
	return []Resource{LLC, MemCap, MemBW, NetBW, DiskCap, DiskBW}
}

// ResourceSet is a set of resources: bit r stands for Resource r. It names
// the entries of a demand vector a query reads (see Demander.DemandInto).
type ResourceSet uint16

// EveryResource is the set of all ten resources.
const EveryResource ResourceSet = 1<<NumResources - 1

// Has reports whether r is in the set.
func (s ResourceSet) Has(r Resource) bool { return s&(1<<r) != 0 }

// Vector is a per-resource pressure vector with entries in [0, 100].
type Vector [NumResources]float64

// Get returns the entry for r. The receiver is a pointer because r is a
// run-time index: a value receiver would first copy all 80 bytes to the
// stack on every call. Index a non-addressable result directly
// (app.Demand(t)[r]).
func (v *Vector) Get(r Resource) float64 { return v[r] }

// Set assigns the entry for r, clamping to [0, 100].
func (v *Vector) Set(r Resource, x float64) {
	if x < 0 {
		x = 0
	}
	if x > 100 {
		x = 100
	}
	v[r] = x
}

// accumulate adds o to v at the entries in need, in resource order,
// clamping each sum to [0, 100]; other entries are left as they are. It
// works in place and through pointers, for folds on the tick path.
func (v *Vector) accumulate(o *Vector, need ResourceSet) {
	for m := uint16(need); m != 0; m &= m - 1 {
		r := Resource(bits.TrailingZeros16(m))
		v.Set(r, v[r]+o[r])
	}
}

// Scale returns v scaled by f, clamped to [0, 100].
func (v Vector) Scale(f float64) Vector {
	var out Vector
	for i := range v {
		out.Set(Resource(i), v[i]*f)
	}
	return out
}

// Slice returns the vector as a fresh []float64, the form the mining
// pipeline consumes.
func (v Vector) Slice() []float64 {
	out := make([]float64, NumResources)
	copy(out, v[:])
	return out
}

// FromSlice builds a Vector from a 10-element slice, clamping each entry.
func FromSlice(xs []float64) Vector {
	var v Vector
	for i := 0; i < NumResources && i < len(xs); i++ {
		v.Set(Resource(i), xs[i])
	}
	return v
}

// Dominant returns the resource with the highest pressure.
func (v Vector) Dominant() Resource {
	best, bestVal := Resource(0), v[0]
	for i := 1; i < NumResources; i++ {
		if v[i] > bestVal {
			best, bestVal = Resource(i), v[i]
		}
	}
	return best
}

// TopK returns the k resources with highest pressure, in decreasing order.
func (v Vector) TopK(k int) []Resource {
	if k > NumResources {
		k = NumResources
	}
	idx := AllResources()
	// Selection sort is fine for 10 entries and keeps this allocation-lean.
	for i := 0; i < k; i++ {
		maxAt := i
		for j := i + 1; j < NumResources; j++ {
			if v[idx[j]] > v[idx[maxAt]] {
				maxAt = j
			}
		}
		idx[i], idx[maxAt] = idx[maxAt], idx[i]
	}
	return idx[:k]
}
