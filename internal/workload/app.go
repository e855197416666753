package workload

import (
	"math/bits"

	"bolt/internal/sim"
)

// Spec is a fully parameterised application: its identity (label and class),
// its baseline resource-pressure profile at full load, the fraction of each
// resource's pressure that scales with load (vs. fixed overhead like
// resident memory), a load pattern, and measurement jitter.
type Spec struct {
	Label string // fine-grained identity, e.g. "hadoop:svm:L"
	Class string // coarse class, e.g. "hadoop"

	Base sim.Vector // pressure at load factor 1.0
	// LoadScaled[r] is the fraction of Base[r] that follows the load
	// pattern; the remainder is constant while the app runs. Memory and
	// disk capacity are mostly load-independent, bandwidths mostly
	// load-dependent.
	LoadScaled sim.Vector // entries in [0, 100] interpreted as percent

	Jitter float64 // per-tick multiplicative noise stddev (e.g. 0.05)
}

// sensitivity returns the sensitivity vector in 0-1, proportional to the
// base profile: applications are most sensitive to the resources they use
// most (§5.1). Pointer receiver: a value receiver copies the whole Spec
// per call.
func (s *Spec) sensitivity() sim.Vector {
	return s.Base.Scale(0.01)
}

// App is a running application instance: a Spec bound to a start time and a
// deterministic noise stream. App implements sim.Demander. Demand is a pure
// function of the tick and Start, so repeated queries for the same time
// agree — the simulator may evaluate a tick several times (probe ramps,
// utilisation checks) and must see a consistent world. Demand and
// DemandInto share one kernel that evaluates only the resources asked for,
// so each entry is the same bits whether it is computed alone or with the
// whole vector. Spec and Pattern are frozen at NewApp: Demand's memo is
// keyed on (tick, Start) only, and a Constant pattern's levels are
// computed there, so mutating either afterwards serves stale vectors.
// Start may be set at any time.
type App struct {
	Spec    Spec
	Pattern LoadPattern
	Start   sim.Tick // tick at which the app began running
	seed    uint64

	// levels[r] holds resource r's pre-jitter pressure when steady is set,
	// which NewApp does when Pattern is a Constant: the load never moves,
	// so the expression the kernel evaluates per tick is evaluated once.
	levels sim.Vector

	// memoVal caches the last Demand evaluation, keyed on (memoTick,
	// memoStart). Demand is a pure function of those two (hash-based noise,
	// no mutable RNG state), so the cache is bit-exact by construction. It
	// matters because one simulator tick evaluates the same app several
	// times — the observation snapshot asks every VM top-level, and a
	// co-resident Reactive's one-step relaxation asks everyone again
	// mid-build. An App belongs to one VM on one host and is evaluated only
	// under that host's detection flow, so a plain field is safe (same
	// single-flow argument as probe.Adversary).
	memoVal   sim.Vector
	memoTick  sim.Tick
	memoStart sim.Tick
	memoValid bool

	steady bool // beside memoValid, so App stays in its 416-byte size class
}

// NewApp instantiates spec with the given noise seed, starting at tick 0.
func NewApp(spec Spec, pattern LoadPattern, seed uint64) *App {
	if pattern == nil {
		pattern = Constant{Level: 1}
	}
	a := &App{Spec: spec, Pattern: pattern, seed: seed}
	if c, ok := pattern.(Constant); ok {
		load := c.Factor(0)
		for r := range a.levels {
			a.levels[r] = levelOf(&a.Spec, r, load)
		}
		a.steady = true
	}
	return a
}

// levelOf is resource r's pressure at the given load factor, before jitter:
// the fixed share of Base[r] plus the load-following share scaled by load.
//
//bolt:hotpath
func levelOf(spec *Spec, r int, load float64) float64 {
	b, frac := spec.Base[r], spec.LoadScaled[r]/100
	return b*(1-frac) + b*frac*load
}

// Demand implements sim.Demander: the base profile split into a fixed and a
// load-following component, modulated by the pattern and jitter. It is the
// memo check plus the demand kernel at every resource, written straight
// into the memo.
//
//bolt:hotpath
func (a *App) Demand(t sim.Tick) sim.Vector {
	if a.memoHit(t) {
		return a.memoVal
	}
	if t < a.Start {
		return sim.Vector{} // the memo keeps the last tick it holds
	}
	a.demandKernel(t, &a.memoVal, sim.EveryResource)
	a.memoTick, a.memoStart, a.memoValid = t, a.Start, true
	return a.memoVal
}

// DemandInto implements sim.Demander: it copies the memo when it holds
// tick t and runs the demand kernel over need otherwise. A partial fill
// never writes the memo, which holds whole vectors only.
//
//bolt:hotpath
func (a *App) DemandInto(t sim.Tick, out *sim.Vector, need sim.ResourceSet) {
	switch {
	case a.memoHit(t):
		*out = a.memoVal
	case t < a.Start:
		*out = sim.Vector{}
	default:
		a.demandKernel(t, out, need)
	}
}

// memoHit reports whether the memo holds Demand(t).
//
//bolt:hotpath
func (a *App) memoHit(t sim.Tick) bool {
	return a.memoValid && a.memoTick == t && a.memoStart == a.Start
}

// demandKernel writes Demand(t)[r] into out[r] for every r in need, for a
// tick t at or after Start.
//
// It is one fused pass over the set bits of need. Each entry's pre-jitter
// level is read from levels for a steady app and computed from Base,
// LoadScaled and the pattern's factor otherwise (levelOf, the same
// expression either way), then clamped straight into out. What does not
// depend on the resource is computed once: the Jitter read and the
// per-tick half of the splitmix64 mix. The noise for resource r at tick t
// is the splitmix64 finaliser of seed ^ t·φ ^ (r+1)·c mapped to a uniform
// factor in [1-2j, 1+2j] (cheap, bounded, mean 1, no mutable RNG state).
// Every floating-point expression keeps its historical operand order, so
// each entry is bit-identical to the straight-line form the tests keep as
// a reference (referenceDemand), whichever other entries are filled with
// it.
//
//bolt:hotpath
func (a *App) demandKernel(t sim.Tick, out *sim.Vector, need sim.ResourceSet) {
	// Factor runs before the in-place writes below: a pattern that re-enters
	// the observation plane must never find the memo half-written.
	var load float64
	if !a.steady {
		load = a.Pattern.Factor(t - a.Start)
	}
	jitter := a.Spec.Jitter
	tickMix := a.seed ^ (uint64(t) * 0x9e3779b97f4a7c15)
	for m := uint16(need); m != 0; m &= m - 1 {
		r := bits.TrailingZeros16(m)
		var level float64
		if a.steady {
			level = a.levels[r]
		} else {
			level = levelOf(&a.Spec, r, load)
		}
		if jitter != 0 {
			z := tickMix ^ (uint64(r+1) * 0xd6e8feb86659fd93)
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			u := float64((z^(z>>31))>>11) / (1 << 53)
			level *= 1 + jitter*2*(2*u-1)
		}
		out.Set(sim.Resource(r), level)
	}
}

// Sensitivity implements sim.Demander.
func (a *App) Sensitivity() sim.Vector { return a.Spec.sensitivity() }

// Phase is one segment of a multi-phase victim: run spec/pattern for
// Duration ticks, then move on.
type Phase struct {
	Spec     Spec
	Pattern  LoadPattern
	Duration sim.Tick
}

// Sequence chains phases, reproducing victims that run consecutive jobs on
// one instance (Fig. 8: SPEC → Hadoop → Spark → memcached → Cassandra).
// After the last phase it keeps running the final phase's spec. Sequence
// implements sim.Demander.
type Sequence struct {
	phases []Phase
	apps   []*App
	starts []sim.Tick
}

// NewSequence builds a multi-phase victim. It panics on an empty phase
// list.
func NewSequence(phases []Phase, seed uint64) *Sequence {
	if len(phases) == 0 {
		panic("workload: empty phase sequence")
	}
	s := &Sequence{phases: phases}
	var at sim.Tick
	for i, p := range phases {
		app := NewApp(p.Spec, p.Pattern, seed+uint64(i)*0x9e37)
		app.Start = at
		s.apps = append(s.apps, app)
		s.starts = append(s.starts, at)
		at += p.Duration
	}
	return s
}

// active returns the phase index live at tick t.
func (s *Sequence) active(t sim.Tick) int {
	for i := len(s.starts) - 1; i >= 0; i-- {
		if t >= s.starts[i] {
			return i
		}
	}
	return 0
}

// Demand implements sim.Demander.
func (s *Sequence) Demand(t sim.Tick) sim.Vector {
	return s.apps[s.active(t)].Demand(t)
}

// DemandInto implements sim.Demander by delegating to the active phase.
func (s *Sequence) DemandInto(t sim.Tick, out *sim.Vector, need sim.ResourceSet) {
	s.apps[s.active(t)].DemandInto(t, out, need)
}

// Sensitivity implements sim.Demander. It reports the sensitivity of the
// first phase; callers tracking phases should use ActiveSpec.
func (s *Sequence) Sensitivity() sim.Vector {
	return s.apps[0].Spec.sensitivity()
}

// ActiveSpec returns the Spec of the phase live at tick t.
func (s *Sequence) ActiveSpec(t sim.Tick) Spec {
	return s.phases[s.active(t)].Spec
}

var (
	_ sim.Demander = (*App)(nil)
	_ sim.Demander = (*Sequence)(nil)
)
