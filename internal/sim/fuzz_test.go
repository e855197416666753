package sim_test

import (
	"fmt"
	"math"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
)

// FuzzObservationMatchesReference holds the cached observation plane to
// its reference copies (refObservedPressure, refObservedVector,
// refHostDemand) bit for bit on fuzzed mutation and query sequences. The
// seed picks the host's configuration (dedicated cores, a random
// visibility vector) and the VMs' workloads; ops is read two bytes at a
// time as (op, arg): place a VM, remove one, retune or reset an adversary
// kernel at an unchanged tick, advance the tick, or query. A query asks
// for a need set — the resources whose bits arg (and op's high bits) set,
// one ObservedPressure each, in order, from an observer op picks, then
// HostDemand over the set — so partial fills, their working sets and a
// retune between two of them land wherever the fuzzer puts them; a full
// query asks ObservedVector and HostDemand over every resource.
func FuzzObservationMatchesReference(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 0, 4, 0x0f, 2, 7, 4, 0xf0, 5, 0, 3, 9, 4, 0xff})
	f.Add(uint64(7), []byte{0, 1, 0, 2, 0, 3, 4, 0x21, 2, 200, 4, 0x21, 1, 0, 5, 0, 12, 0x40, 3, 0, 5, 3})
	f.Add(uint64(42), []byte{0, 0, 0, 0, 0, 0, 0, 0, 5, 1, 4, 0x80, 2, 1, 4, 0x80, 10, 0x03, 1, 1, 4, 0x03})
	f.Add(uint64(9), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		rng := stats.NewRNG(seed)
		cfg := sim.ServerConfig{DedicatedCores: seed&1 == 1}
		if seed&2 == 2 {
			var vis sim.Vector
			for i := range sim.AllResources() {
				vis.Set(sim.Resource(i), 0.25+0.75*rng.Float64())
			}
			cfg.Visibility = &vis
		}
		w := &parityWorld{s: sim.NewServer("fuzz", cfg), rng: rng}
		var at sim.Tick
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			switch op % 6 {
			case 0:
				w.placeRandom(t)
			case 1:
				w.removeRandom()
			case 2:
				if len(w.kernels) > 0 {
					k := w.kernels[int(op>>3)%len(w.kernels)]
					if arg >= 200 {
						k.Reset()
					} else {
						k.Set(sim.Resource(arg%sim.NumResources), float64(arg%100))
					}
				}
			case 3:
				at += sim.Tick(1 + arg%50)
			case 4:
				obs := observer(w.s, op>>5)
				need := uint(arg) | uint(op>>3&3)<<8
				for _, r := range sim.AllResources() {
					if need>>r&1 == 1 {
						got, want := w.s.ObservedPressure(obs, r, at), refObservedPressure(w.s, obs, r, at)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("t=%d observer %s ObservedPressure(%v) = %v, reference %v", at, name(obs), r, got, want)
						}
					}
				}
				set := sim.ResourceSet(need) & sim.EveryResource
				matchBits(t, fmt.Sprintf("t=%d HostDemand(%010b)", at, set), w.s.HostDemand(at, set), refHostDemand(w.s, at, set))
			case 5:
				obs := observer(w.s, op>>3)
				matchBits(t, fmt.Sprintf("t=%d observer %s ObservedVector", at, name(obs)), w.s.ObservedVector(obs, at), refObservedVector(w.s, obs, at))
				matchBits(t, fmt.Sprintf("t=%d HostDemand", at), w.s.HostDemand(at, sim.EveryResource), refHostDemand(w.s, at, sim.EveryResource))
			}
		}
	})
}

// observer picks the observing VM: none for pick 0, else one of s's VMs.
func observer(s *sim.Server, pick byte) *sim.VM {
	vms := s.VMs()
	if pick == 0 || len(vms) == 0 {
		return nil
	}
	return vms[int(pick)%len(vms)]
}

func name(vm *sim.VM) string {
	if vm == nil {
		return "nil"
	}
	return vm.ID
}

// matchBits fails the test unless got and want agree bit for bit.
func matchBits(t *testing.T, what string, got, want sim.Vector) {
	t.Helper()
	for r := range got {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("%s[%v] = %v, reference %v", what, sim.Resource(r), got[r], want[r])
		}
	}
}
