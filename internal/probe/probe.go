// Package probe implements the adversary side of Bolt's measurement layer:
// tunable contention microbenchmarks (one per shared resource, in the
// spirit of iBench), the ramp-until-degradation profiling procedure of
// §3.2, and the shutter profiling mode of §3.3 for hosts where no victim
// shares a core with the adversary.
package probe

import (
	"sync"

	"bolt/internal/fault"
	"bolt/internal/sim"
	"bolt/internal/stats"
)

// Kernels is the adversarial VM's application: a set of contention kernels,
// one per resource, each running at a settable intensity (percent of the
// host resource it consumes). It implements sim.RetunableDemander.
// Profiling ramps one kernel at a time; the DoS attack (§5.1) pins several
// at high intensity. Kernels is safe for concurrent use.
type Kernels struct {
	mu        sync.Mutex
	intensity sim.Vector
	// MaxIntensity caps every kernel. Small adversarial VMs cannot generate
	// full-host contention (Fig. 10b); see MaxIntensityFor.
	MaxIntensity float64
}

// NewKernels returns an idle kernel set with the given intensity cap
// (0 means uncapped).
func NewKernels(maxIntensity float64) *Kernels {
	if maxIntensity <= 0 || maxIntensity > 100 {
		maxIntensity = 100
	}
	return &Kernels{MaxIntensity: maxIntensity}
}

// MaxIntensityFor returns the contention ceiling a VM of the given size can
// generate. The paper finds adversaries below 4 vCPUs cannot create enough
// contention to expose co-resident pressure (Fig. 10b); intensity scales
// linearly up to that point.
func MaxIntensityFor(vcpus int) float64 {
	if vcpus >= 4 {
		return 100
	}
	if vcpus <= 0 {
		return 0
	}
	return 25 * float64(vcpus)
}

// Set fixes the kernel for resource r at the given intensity (clamped to
// the VM's ceiling).
func (k *Kernels) Set(r sim.Resource, intensity float64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if intensity > k.MaxIntensity {
		intensity = k.MaxIntensity
	}
	k.intensity.Set(r, intensity)
}

// Reset idles every kernel.
func (k *Kernels) Reset() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.intensity = sim.Vector{}
}

// Demand implements sim.Demander: the adversary exerts exactly its kernel
// intensities.
func (k *Kernels) Demand(sim.Tick) sim.Vector {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.intensity
}

// DemandInto implements sim.Demander: the intensities are at hand, so it
// writes them all.
func (k *Kernels) DemandInto(_ sim.Tick, out *sim.Vector, _ sim.ResourceSet) {
	k.mu.Lock()
	defer k.mu.Unlock()
	*out = k.intensity
}

// Sensitivity implements sim.Demander. The adversary does not care about
// its own performance degradation beyond detecting it, so sensitivity is
// zero for the slowdown model.
func (k *Kernels) Sensitivity() sim.Vector { return sim.Vector{} }

// Retunable implements sim.RetunableDemander: the kernel intensities are
// mutated out-of-band (ramps, attacks, the RFA helper toggled mid-tick),
// so the server's per-tick demand snapshot checks them before serving.
func (k *Kernels) Retunable() {}

var _ sim.RetunableDemander = (*Kernels)(nil)

// rampStep is the intensity increment per ramp step in percent, and
// ticksPerStep how long each step takes (one tick, 100 ms): the §3.2
// ramp-until-degradation procedure.
const (
	rampStep     = 4.0
	ticksPerStep = sim.Tick(1)
)

// Config tunes the profiling procedure.
type Config struct {
	// NoiseSD is the measurement noise on the degradation check; 0 means 2.5.
	NoiseSD float64
	// Faults configures deterministic fault injection on this adversary's
	// measurements (internal/fault). It is the only way faults reach an
	// adversary: the zero value injects nothing and leaves the probe's
	// random streams untouched.
	Faults fault.Config
}

func (c Config) withDefaults() Config {
	if c.NoiseSD == 0 {
		c.NoiseSD = 2.5
	}
	return c
}

// Adversary drives profiling from an adversarial VM placed on a server.
type Adversary struct {
	VM      *sim.VM
	Kernels *Kernels
	cfg     Config
	rng     *stats.RNG
	// uncorePerm is ProfileOnce's benchmark-order permutation, reused
	// across iterations. An adversary is single-flow by construction (its
	// rng state already serialises use), so a plain field suffices.
	uncorePerm []int
	// orderBuf backs ProfileOnce's benchmark order; resBuf backs the
	// Resources list of the Profile the Profile* passes return; sigBuf backs
	// CoreSignatures' signature list. All three are reused across profiling
	// calls (see the Profile.Resources lifetime note) — the episode loop
	// runs thousands of passes and these were its last per-pass allocations.
	orderBuf []sim.Resource
	resBuf   []sim.Resource
	sigBuf   []sim.Vector
	// faults is the adversary's fault-injection plane; nil (the common
	// case) means no injection and zero extra random draws.
	faults *fault.Plane
}

// NewAdversary builds an adversarial VM of the given size, ready to be
// placed on a server. Its contention ceiling follows MaxIntensityFor.
func NewAdversary(id string, vcpus int, cfg Config, rng *stats.RNG) *Adversary {
	k := NewKernels(MaxIntensityFor(vcpus))
	a := &Adversary{
		VM:      &sim.VM{ID: id, VCPUs: vcpus, App: k},
		Kernels: k,
		cfg:     cfg.withDefaults(),
		rng:     rng,
	}
	if a.cfg.Faults.Enabled() {
		// The plane gets its own stream so injection decisions never shift
		// the measurement-noise stream; the Split itself happens only when
		// faults are on, keeping the rate-0 noise stream byte-identical to a
		// build without the fault plane.
		a.faults = fault.New(a.cfg.Faults, rng.Split())
	}
	return a
}

// FaultPlane returns the adversary's fault-injection plane, nil when fault
// injection is disabled (experiments read its Counts).
func (a *Adversary) FaultPlane() *fault.Plane { return a.faults }

// installFaults registers the adversary's fault plane as the server's
// sensor hook for this VM's readings, so the corruption class applies to
// every observation the adversary takes. Idempotent, and a no-op without a
// plane; every profiling entry point calls it because an episode may start
// with any measurement mode.
func (a *Adversary) installFaults(s *sim.Server) {
	if a.faults.Enabled() {
		s.SetObservationFault(a.VM, a.faults)
	}
}

// measure runs one ramp through the fault plane. At the ramp boundary the
// churn class may remove (or re-place) a co-resident; a transiently failed
// ramp is retried with capped exponential backoff (1, 2, 4, ... ticks); a
// dropped measurement is discarded after the ticks were spent. ok reports
// whether a usable measurement was produced, and m.Ticks always charges
// the full time spent, including retries and backoff — faults cost the
// adversary time even when they yield nothing, which is exactly how they
// hurt on real hosts. Without a fault plane this is Ramp, unchanged.
func (a *Adversary) measure(s *sim.Server, r sim.Resource, start sim.Tick) (Measurement, bool) {
	if !a.faults.Enabled() {
		return a.Ramp(s, r, start), true
	}
	a.faults.MaybeChurn(s, a.VM)
	var used sim.Tick
	backoff := sim.Tick(1)
	for attempt := 0; ; attempt++ {
		m := a.Ramp(s, r, start+used)
		used += m.Ticks
		if !a.faults.ProbeFailed(r) {
			m.Ticks = used
			return m, !a.faults.DropMeasurement(r)
		}
		if attempt >= fault.MaxRetries {
			m.Ticks = used
			return m, false
		}
		used += backoff
		backoff *= 2
		if backoff > fault.BackoffCap {
			backoff = fault.BackoffCap
		}
	}
}

// detectMargin is the minimum external pressure that registers as
// degradation: a probe running at full intensity in isolation sits exactly
// at capacity and must not read its own demand as a co-resident.
const detectMargin = 2.0

// coreSharedFloor is the measured core pressure above which the adversary
// concludes a victim shares one of its physical cores. It sits above the
// spurious readings measurement noise can produce at the very end of a
// ramp.
const coreSharedFloor = 5.0

// Measurement is the outcome of ramping a single microbenchmark. A ramp
// that never saw its performance degrade reports the floor estimate
// 100 − MaxIntensity: co-resident pressure below what the VM can sense.
type Measurement struct {
	Pressure float64  // estimated co-resident pressure c_i in [0, 100]
	Ticks    sim.Tick // time the ramp took
}

// Ramp runs the microbenchmark for resource r starting at the given tick:
// intensity increases stepwise from 0 until the benchmark's performance
// drops below its isolated baseline — i.e. until its own demand plus the
// co-residents' pressure exceeds the resource's capacity. The intensity at
// that point yields the pressure estimate c_i = 100 − intensity (plus
// quantisation and measurement noise — the error sources that keep
// detection below 100%).
func (a *Adversary) Ramp(s *sim.Server, r sim.Resource, start sim.Tick) Measurement {
	defer a.Kernels.Set(r, 0)
	var used sim.Tick
	for x := rampStep; x <= a.Kernels.MaxIntensity; x += rampStep {
		a.Kernels.Set(r, x)
		t := start + used
		used += ticksPerStep
		observed := s.ObservedPressure(a.VM, r, t)
		noise := a.rng.Norm(0, a.cfg.NoiseSD)
		if x+observed+noise >= 100+detectMargin {
			ci := 100 - x + rampStep/2 // midpoint of the quantisation bin
			return Measurement{Pressure: stats.Clamp(ci, 0, 100), Ticks: used}
		}
	}
	// Never degraded: co-resident pressure is below what this VM can sense.
	// With a full-size adversary that means ~zero pressure.
	return Measurement{Pressure: stats.Clamp(100-a.Kernels.MaxIntensity, 0, 100), Ticks: used}
}

// Profile is one complete profiling iteration: the sparse observation
// vector, which resources were actually measured, how long it took, and
// whether the adversary shares a core with any co-resident (zero core
// pressure when not).
//
// Resources aliases a buffer owned by the adversary and is valid only until
// its next Profile* call; callers that fold the profile into their own state
// immediately (the episode loop) need no copy, anyone else must take one.
type Profile struct {
	Observed   sim.Vector
	Known      [sim.NumResources]bool
	Ticks      sim.Tick
	Resources  []sim.Resource
	CoreShared bool
}

// ProfileOnce performs one profiling iteration per §3.2: one randomly
// chosen core benchmark and one uncore benchmark; if the core benchmark
// reports zero pressure (no shared core) a second uncore benchmark is
// added. extraUncore forces additional uncore benchmarks on top (the §3.3
// multi-co-resident path and the Fig. 10c sensitivity sweep).
func (a *Adversary) ProfileOnce(s *sim.Server, start sim.Tick, extraBench int) Profile {
	a.installFaults(s)
	var p Profile
	p.Resources = a.resBuf[:0]
	core := sim.CoreResources()
	uncore := sim.UncoreResources()

	if cap(a.orderBuf) < 3+extraBench {
		a.orderBuf = make([]sim.Resource, 0, 3+extraBench)
	}
	order := a.orderBuf[:0]
	order = append(order, core[a.rng.Intn(len(core))])
	if len(a.uncorePerm) != len(uncore) {
		a.uncorePerm = make([]int, len(uncore))
	}
	a.rng.PermInto(a.uncorePerm)
	uncorePerm := a.uncorePerm
	uncoreAt := 0
	nextUncore := func() sim.Resource {
		r := uncore[uncorePerm[uncoreAt%len(uncore)]]
		uncoreAt++
		return r
	}
	order = append(order, nextUncore())

	t := start
	for i := 0; i < len(order); i++ {
		r := order[i]
		m, ok := a.measure(s, r, t)
		t += m.Ticks
		p.Resources = append(p.Resources, r)
		if !ok {
			// The measurement was lost (dropout, or a failed ramp exhausted
			// its retries): the entry stays unobserved and the profile goes
			// out sparse. A lost first core measurement also says nothing
			// about sharing, so the §3.2 extra-uncore rule fires exactly as
			// for a silent core.
			if r.IsCore() && i == 0 {
				order = append(order, nextUncore())
			}
			continue
		}
		if r.IsCore() && m.Pressure <= coreSharedFloor {
			// A ~zero core reading means no victim shares this core (§3.3),
			// not that the victim has no core pressure: the measurement
			// carries no information about the co-residents and must not be
			// fed to the recommender as a real observation.
			if i == 0 {
				// No shared core: add one more uncore benchmark (§3.2).
				order = append(order, nextUncore())
			}
			continue
		}
		p.Observed.Set(r, m.Pressure)
		p.Known[r] = true
		if r.IsCore() {
			p.CoreShared = true
		}
	}
	for i := 0; i < extraBench; i++ {
		r := nextUncore()
		if p.Known[r] {
			continue
		}
		m, ok := a.measure(s, r, t)
		t += m.Ticks
		p.Resources = append(p.Resources, r)
		if !ok {
			continue
		}
		p.Observed.Set(r, m.Pressure)
		p.Known[r] = true
	}
	a.faults.Settle()
	a.orderBuf, a.resBuf = order, p.Resources
	p.Ticks = t - start
	return p
}

// ProfileCore measures all four core resources (used when at least one
// co-resident shares a core and the first detection attempt failed, §3.3:
// "we profile with an additional core benchmark").
func (a *Adversary) ProfileCore(s *sim.Server, start sim.Tick) Profile {
	a.installFaults(s)
	var p Profile
	p.Resources = a.resBuf[:0]
	t := start
	for _, r := range sim.CoreResources() {
		m, ok := a.measure(s, r, t)
		t += m.Ticks
		p.Resources = append(p.Resources, r)
		if !ok {
			continue
		}
		p.Observed.Set(r, m.Pressure)
		p.Known[r] = true
		if m.Pressure > coreSharedFloor {
			p.CoreShared = true
		}
	}
	if !p.CoreShared {
		// Every core read ~zero: no hyperthread sibling, so none of these
		// measurements say anything about the co-residents.
		p.Observed = sim.Vector{}
		p.Known = [sim.NumResources]bool{}
	}
	a.faults.Settle()
	a.resBuf = p.Resources
	p.Ticks = t - start
	return p
}

// CoreSignatures measures the core-resource pressure on each physical core
// the adversary occupies, returning one 4-entry signature per core that
// carries sibling pressure. The returned slice may alias a buffer owned by
// the adversary and is valid until its next CoreSignatures call; callers
// that keep signatures across passes merge them immediately
// (MergeSignatures copies). Because hyperthreads are never shared between
// VMs, each signature belongs to exactly one co-resident — the anchor the
// mixture disentangling of §3.3 is built on. Probes on different cores run
// concurrently (the adversary owns one hyperthread on each), so the time
// charged is the slowest core's ramp sequence.
func (a *Adversary) CoreSignatures(s *sim.Server, start sim.Tick) ([]sim.Vector, sim.Tick) {
	// Per-core ramps see corruption through the sensor hook; the
	// measurement-level classes (dropout, retry, churn) apply only to the
	// whole-host Profile* passes, which dominate an episode's ramp count.
	a.installFaults(s)
	// The VM's core set is precomputed by Place, already deduplicated and
	// sorted ascending — the order the map+sort construction used to yield.
	coreIdxs := a.VM.Cores()

	sigs := a.sigBuf[:0]
	var maxTicks sim.Tick
	for _, coreIdx := range coreIdxs {
		var sig sim.Vector
		var used sim.Tick
		hasPressure := false
		for _, r := range sim.CoreResources() {
			m := a.rampCore(s, coreIdx, r, start+used)
			used += m.Ticks
			sig.Set(r, m.Pressure)
			if m.Pressure > coreSharedFloor {
				hasPressure = true
			}
		}
		if used > maxTicks {
			maxTicks = used
		}
		if hasPressure {
			sigs = append(sigs, sig)
		}
	}
	a.sigBuf = sigs
	return dedupSignatures(sigs), maxTicks
}

// rampCore is Ramp restricted to one physical core's sibling pressure.
func (a *Adversary) rampCore(s *sim.Server, coreIdx int, r sim.Resource, start sim.Tick) Measurement {
	var used sim.Tick
	for x := rampStep; x <= a.Kernels.MaxIntensity; x += rampStep {
		t := start + used
		used += ticksPerStep
		observed := s.ObservedCorePressure(a.VM, coreIdx, r, t)
		noise := a.rng.Norm(0, a.cfg.NoiseSD)
		if x+observed+noise >= 100+detectMargin {
			return Measurement{Pressure: stats.Clamp(100-x+rampStep/2, 0, 100), Ticks: used}
		}
	}
	return Measurement{Pressure: stats.Clamp(100-a.Kernels.MaxIntensity, 0, 100), Ticks: used}
}

// sigMergeDist is the RMS core-signature distance below which two
// signatures are treated as the same co-resident (one VM spanning several
// of the adversary's cores).
const sigMergeDist = 10.0

// MergeSignatures combines signature sets from successive passes: entries
// within the merge distance are averaged, new ones appended.
func MergeSignatures(old, new []sim.Vector) []sim.Vector {
	return dedupSignatures(append(append([]sim.Vector(nil), old...), new...))
}

// dedupSignatures merges near-identical signatures by averaging. Zero- and
// one-entry inputs are returned as-is (nothing can merge), so the common
// single-sibling episode pays no allocation here.
func dedupSignatures(sigs []sim.Vector) []sim.Vector {
	if len(sigs) < 2 {
		return sigs
	}
	var out []sim.Vector
	counts := []int{}
	for _, sig := range sigs {
		merged := false
		for i, existing := range out {
			d, n := 0.0, 0.0
			for _, r := range sim.CoreResources() {
				diff := sig.Get(r) - existing.Get(r)
				d += diff * diff
				n++
			}
			if d/n <= sigMergeDist*sigMergeDist {
				// Running average of the merged signature.
				c := float64(counts[i])
				var avg sim.Vector
				for _, r := range sim.CoreResources() {
					avg.Set(r, (existing.Get(r)*c+sig.Get(r))/(c+1))
				}
				out[i] = avg
				counts[i]++
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, sig)
			counts = append(counts, 1)
		}
	}
	return out
}

// ProfileUncore ramps the given uncore resources (all of them when the
// list is empty), used to complete the mixture observation once the core
// side of an episode is covered.
func (a *Adversary) ProfileUncore(s *sim.Server, start sim.Tick, resources []sim.Resource) Profile {
	a.installFaults(s)
	if len(resources) == 0 {
		resources = sim.UncoreResources()
	}
	var p Profile
	p.Resources = a.resBuf[:0]
	t := start
	for _, r := range resources {
		if r.IsCore() {
			continue
		}
		m, ok := a.measure(s, r, t)
		t += m.Ticks
		p.Resources = append(p.Resources, r)
		if !ok {
			continue
		}
		p.Observed.Set(r, m.Pressure)
		p.Known[r] = true
	}
	a.faults.Settle()
	a.resBuf = p.Resources
	p.Ticks = t - start
	return p
}

// mrcLevels is the LLC-intensity sweep of the miss-ratio-curve probe.
var mrcLevels = [...]float64{0, 30, 60, 90}

// CacheResponseSlope runs the miss-ratio-curve probe: the adversary sweeps
// its own LLC kernel across several intensities and measures how the
// observed memory bandwidth responds. The fitted slope (extra observed
// MemBW pressure per unit of own LLC intensity) is the aggregate
// cache-spill response of the co-residents — an independent equation on
// the mixture, useful exactly where shutter mode is weak: constant
// steady-state loads (the §3.3 future-work extension).
func (a *Adversary) CacheResponseSlope(s *sim.Server, start sim.Tick) (float64, sim.Tick) {
	a.installFaults(s)
	defer a.Kernels.Set(sim.LLC, 0)
	const ticksPerLevel = 2
	// The sweep is at most four points; stack arrays keep the per-call
	// regression allocation-free on the episode escalation path.
	var xs, ys [len(mrcLevels)]float64
	n := 0
	var used sim.Tick
	for _, level := range mrcLevels {
		if level > a.Kernels.MaxIntensity {
			break
		}
		a.Kernels.Set(sim.LLC, level)
		sum := 0.0
		for i := sim.Tick(0); i < ticksPerLevel; i++ {
			sum += s.ObservedPressure(a.VM, sim.MemBW, start+used) +
				a.rng.Norm(0, a.cfg.NoiseSD/2)
			used++
		}
		xs[n] = level / 100
		ys[n] = sum / float64(ticksPerLevel)
		n++
	}
	if n < 2 {
		return 0, used
	}
	// Least-squares slope.
	mx, my := meanOf(xs[:n]), meanOf(ys[:n])
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0, used
	}
	slope := num / den
	if slope < 0 {
		slope = 0 // noise; the physical response cannot be negative
	}
	return slope, used
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ShutterMin runs the shutter profiling mode of §3.3: many brief (one-tick)
// uncore observations spread over a window, hoping to catch at least one
// co-resident in a low-load phase. It returns the per-resource minimum
// across the window — the quietest moment, which approximates the pressure
// of the busiest single co-resident when another one idles — and
// allocates nothing.
func (a *Adversary) ShutterMin(s *sim.Server, start sim.Tick, samples int, window sim.Tick) sim.Vector {
	a.installFaults(s)
	if samples <= 0 {
		samples = 10
	}
	if window <= 0 {
		window = sim.Tick(samples)
	}
	var minV sim.Vector
	for _, r := range sim.UncoreResources() {
		minV.Set(r, 100)
	}
	for i := 0; i < samples; i++ {
		t := start + sim.Tick(a.rng.Intn(int(window)))
		for _, r := range sim.UncoreResources() {
			v := s.ObservedPressure(a.VM, r, t) + a.rng.Norm(0, a.cfg.NoiseSD/2)
			if v < minV.Get(r) {
				minV.Set(r, stats.Clamp(v, 0, 100))
			}
		}
	}
	return minV
}
