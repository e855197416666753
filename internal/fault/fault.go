// Package fault implements a deterministic, seed-driven fault-injection
// plane for the probe/detection pipeline. Bolt's real-cloud evaluation
// (§3.4-3.5, 200 EC2 instances) succeeds despite measurement pathologies
// the well-behaved Gaussian noise model cannot produce: ramps interrupted
// by scheduler churn, co-residents arriving and departing mid-profile, and
// contention spikes corrupting individual samples. This package injects
// four such fault classes into the simulated pipeline so the detection
// stack's graceful degradation can be exercised and measured:
//
//   - Dropout: a completed ramp measurement is lost before it reaches the
//     profile, so the pressure vector goes out sparse.
//   - Corruption: a single sensor reading picks up a bounded spike before
//     the adversary sees it (a sim.ObservationFault hook).
//   - Churn: a co-resident VM is removed mid-profile and re-placed at a
//     later ramp boundary, exercising the observation plane's
//     snapshot-epoch discipline.
//   - ProbeFailure: a ramp produces no usable signal and must be retried
//     with capped exponential backoff.
//
// Determinism contract: a Plane draws exclusively from its own stats.RNG
// stream (handed in by the owner via rng.Split), so injection decisions
// never shift the probe's measurement-noise stream. A nil *Plane — which
// is what New returns for a disabled Config — is a complete no-op on every
// method and consumes zero random draws, so a run with fault rate 0 is
// byte-identical to a run without the fault plane compiled in at all.
package fault

import (
	"fmt"

	"bolt/internal/sim"
	"bolt/internal/stats"
)

// Class enumerates the injectable fault classes.
type Class int

// The four fault classes, in injection-report order.
const (
	Dropout Class = iota
	Corruption
	Churn
	ProbeFailure
	NumClasses = 4
)

var classNames = [NumClasses]string{"dropout", "corruption", "churn", "probe-failure"}

// String returns the class name used in experiment tables.
func (c Class) String() string {
	if c < 0 || int(c) >= NumClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Per-opportunity probability scaling. The headline Config.Rate is the
// per-ramp probability of the two measurement-level classes (dropout,
// probe failure). The other two classes fire on much more frequent
// opportunities — corruption on every single sensor reading (a ramp takes
// ~20 readings) and churn on every ramp boundary — so their probabilities
// are scaled down to keep one headline knob meaningful across classes.
const (
	corruptionPerReading = 1.0 / 8
	churnPerBoundary     = 1.0 / 4
)

// spikeMax bounds a corruption spike's magnitude in pressure points (the
// corrupted reading is re-clamped to [0, 100]).
const spikeMax = 30.0

// MaxRetries caps how many times a transiently failed ramp is retried
// before the measurement is abandoned, and BackoffCap the exponential retry
// backoff in ticks (1, 2, 4, ... up to the cap). probe.measure reads both.
const (
	MaxRetries = 3
	BackoffCap = sim.Tick(8)
)

// Config selects the fault intensity and which classes fire. The zero
// value injects nothing.
type Config struct {
	// Rate is the headline fault intensity in [0, 1]: the per-ramp
	// probability of a dropout and of a transient probe failure, and the
	// base for the scaled-down corruption and churn probabilities. Values
	// outside [0, 1] are clamped.
	Rate float64

	// DisableDropout, DisableCorruption, DisableChurn and
	// DisableProbeFailure turn off individual classes. No experiment or
	// binary sets them; they are the seam the fault, probe and serve tests
	// use to isolate one pathology.
	DisableDropout      bool
	DisableCorruption   bool
	DisableChurn        bool
	DisableProbeFailure bool
}

// Enabled reports whether this config injects anything.
func (c Config) Enabled() bool { return c.Rate > 0 }

// Plane injects faults for one adversary. It is not safe for concurrent
// use; each adversary owns one plane, mirroring how each adversary owns
// one measurement-noise RNG stream.
type Plane struct {
	cfg    Config
	rng    *stats.RNG
	counts [NumClasses]uint64

	// churned is the co-resident the churn class currently holds removed,
	// and churnedFrom the server it came off; it is re-placed at the next
	// ramp boundary or at Settle, whichever comes first.
	churned     *sim.VM
	churnedFrom *sim.Server
}

var _ sim.ObservationFault = (*Plane)(nil)

// New builds a fault plane drawing from rng, which must be a dedicated
// stream (rng.Split() from the owner's stream). For a disabled config New
// returns nil without touching rng — a nil *Plane is a valid, method-safe
// no-op plane.
func New(cfg Config, rng *stats.RNG) *Plane {
	cfg.Rate = stats.Clamp(cfg.Rate, 0, 1)
	if !cfg.Enabled() {
		return nil
	}
	return &Plane{cfg: cfg, rng: rng}
}

// Enabled reports whether the plane injects anything. It is the nil check
// callers use to keep the disabled path free of fault logic.
func (p *Plane) Enabled() bool { return p != nil }

// Counts returns how many faults of each class have been injected so far,
// indexed by Class.
func (p *Plane) Counts() [NumClasses]uint64 {
	if p == nil {
		return [NumClasses]uint64{}
	}
	return p.counts
}

// fire draws one class decision from the plane's stream and counts it.
// Disabled classes draw nothing, so per-class disables are themselves
// deterministic config, not stream-consuming branches.
func (p *Plane) fire(c Class, scale float64, disabled bool) bool {
	if disabled || !p.rng.Bool(p.cfg.Rate*scale) {
		return false
	}
	p.counts[c]++
	return true
}

// DropMeasurement reports whether a completed ramp measurement for r is
// lost before it reaches the profile (the dropout class). The ticks were
// still spent; only the value is gone, so the profile entry stays
// unobserved and the vector goes out sparse.
func (p *Plane) DropMeasurement(r sim.Resource) bool {
	if p == nil {
		return false
	}
	return p.fire(Dropout, 1, p.cfg.DisableDropout)
}

// ProbeFailed reports whether a ramp attempt for r produced no usable
// signal (the transient-probe-failure class); the caller retries with
// capped exponential backoff.
func (p *Plane) ProbeFailed(r sim.Resource) bool {
	if p == nil {
		return false
	}
	return p.fire(ProbeFailure, 1, p.cfg.DisableProbeFailure)
}

// Perturb implements sim.ObservationFault: with the corruption class's
// per-reading probability it adds a bounded uniform spike to the sensor
// reading v and re-clamps to the pressure range [0, 100].
func (p *Plane) Perturb(observer *sim.VM, r sim.Resource, t sim.Tick, v float64) float64 {
	if p == nil || !p.fire(Corruption, corruptionPerReading, p.cfg.DisableCorruption) {
		return v
	}
	return stats.Clamp(v+p.rng.Range(-spikeMax, spikeMax), 0, 100)
}

// FaultProfile injects the two request-level fault classes into an already
// assembled observed profile — the shape live detection-service traffic has
// (internal/serve), where the probing loop that the ramp-level classes hook
// is on the client's side of the wire. Each known entry independently
// suffers dropout (the measurement is lost: known[j] cleared, the value
// zeroed so no stale reading leaks into a "sparse" vector) or, surviving
// that, per-reading corruption via Perturb. Both slices are mutated in
// place; callers serving shared request memory must pass copies. It returns
// how many entries were dropped and how many corrupted.
//
// Draw order is fixed (ascending j, dropout before corruption), so a
// single-owner plane replays bit-identically for the same request sequence.
func (p *Plane) FaultProfile(observed []float64, known []bool) (dropped, corrupted int) {
	if p == nil {
		return 0, 0
	}
	for j := range known {
		if !known[j] {
			continue
		}
		r := sim.Resource(j)
		if p.DropMeasurement(r) {
			known[j] = false
			observed[j] = 0
			dropped++
			continue
		}
		if v := p.Perturb(nil, r, 0, observed[j]); v != observed[j] {
			observed[j] = v
			corrupted++
		}
	}
	return dropped, corrupted
}

// MaybeChurn runs the victim-churn class at a ramp boundary. A co-resident
// held removed by a previous boundary is re-placed first, then with the
// class's per-boundary probability one co-resident of adv on s (never adv
// itself) is removed until the next boundary. Both the removal and the
// re-placement bump the server's placement epoch, so the observation
// plane's snapshot discipline is exercised mid-profile exactly as a real
// scheduler migration would.
func (p *Plane) MaybeChurn(s *sim.Server, adv *sim.VM) {
	if p == nil || p.cfg.DisableChurn {
		return
	}
	p.restore()
	if !p.rng.Bool(p.cfg.Rate * churnPerBoundary) {
		return
	}
	// Candidate selection walks placement order (deterministic), skipping
	// the adversary; Intn picks uniformly among co-residents.
	vms := s.VMs()
	n := 0
	for _, vm := range vms {
		if vm != adv {
			vms[n] = vm
			n++
		}
	}
	if n == 0 {
		return
	}
	vm := vms[p.rng.Intn(n)]
	if !s.Remove(vm.ID) {
		return
	}
	p.counts[Churn]++
	p.churned, p.churnedFrom = vm, s
}

// Settle re-places any co-resident the churn class still holds removed.
// The probe calls it at the end of each profiling pass so churn is a
// transient, per-profile perturbation: the cluster always returns to its
// scheduled placement before the next episode step observes it.
func (p *Plane) Settle() {
	if p == nil {
		return
	}
	p.restore()
}

func (p *Plane) restore() {
	if p.churned == nil {
		return
	}
	// Nothing else has been placed since the removal, so the freed slots
	// are still free and re-placement cannot fail; the error is checked
	// anyway so a violated assumption surfaces as a missing VM in the
	// experiment's ground truth rather than a silent inconsistency.
	_ = p.churnedFrom.Place(p.churned)
	p.churned, p.churnedFrom = nil, nil
}
