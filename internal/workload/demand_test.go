package workload

import (
	"math"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
)

// referenceDemand is the straight-line form App.Demand had before it was
// fused: one Get per operand, one hash64/noise call per resource, no memo.
// It is the arithmetic every committed golden was recorded with, so the
// fused kernel must agree with it bit for bit.
func referenceDemand(a *App, t sim.Tick) sim.Vector {
	hash64 := func(t sim.Tick, salt uint64) uint64 {
		z := a.seed ^ (uint64(t) * 0x9e3779b97f4a7c15) ^ (salt * 0xd6e8feb86659fd93)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	noise := func(t sim.Tick, r sim.Resource) float64 {
		if a.Spec.Jitter == 0 {
			return 1
		}
		u := float64(hash64(t, uint64(r)+1)>>11) / (1 << 53)
		return 1 + a.Spec.Jitter*2*(2*u-1)
	}
	rel := t - a.Start
	if rel < 0 {
		return sim.Vector{}
	}
	load := a.Pattern.Factor(rel)
	var out sim.Vector
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		base := a.Spec.Base.Get(r)
		frac := a.Spec.LoadScaled.Get(r) / 100
		level := base*(1-frac) + base*frac*load
		out.Set(r, level*noise(t, r))
	}
	return out
}

// referencePatterns are the load patterns the kernel is checked under:
// Constants, which NewApp turns into steady levels, at levels inside [0, 1]
// and outside it (clamp01's three cases), nil (NewApp's default,
// Constant{1}), and the per-tick patterns.
var referencePatterns = []LoadPattern{
	Constant{Level: 0.8},
	Constant{Level: 0},
	Constant{Level: 1.4},
	Constant{Level: -0.2},
	nil,
	Diurnal{Min: 0.2, Max: 0.95, Period: 700, Phase: 0.3},
	Bursty{OnLevel: 0.9, OffLevel: 0.1, OnTicks: 120, OffTicks: 45, Offset: 17},
	Batch{Ramp: 40, Duration: 3000, Level: 0.9},
}

// isSteady reports whether NewApp must take p's steady path.
func isSteady(p LoadPattern) bool {
	_, constant := p.(Constant)
	return p == nil || constant
}

func TestDemandMatchesReferenceBitExact(t *testing.T) {
	// Start is 6, so the first two ticks have rel < 0 and 6 has rel == 0;
	// the repeated 6 and 4099 are memo hits.
	ticks := []sim.Tick{0, 5, 6, 6, 7, 46, 171, 172, 1024, 3005, 3006, 4099, 4099, 8191}
	for gi, g := range Generators() {
		for variant := 0; variant < 3; variant++ {
			spec := g.Make(stats.NewRNG(uint64(gi*31+variant)), variant)
			for _, jitter := range []float64{0, spec.Jitter} {
				spec.Jitter = jitter
				for _, p := range referencePatterns {
					app := NewApp(spec, p, uint64(gi)<<8|uint64(variant))
					app.Start = 6
					if app.steady != isSteady(p) {
						t.Fatalf("%T: NewApp set steady=%v", p, app.steady)
					}
					for _, tick := range ticks {
						if got, want := app.Demand(tick), referenceDemand(app, tick); got != want {
							t.Fatalf("%s jitter=%v %T tick %d:\n got %v\nwant %v",
								spec.Label, jitter, p, tick, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDemandIntoMatchesReferenceBitExact checks every entry DemandInto is
// asked for against referenceDemand, bit for bit, over every single
// resource, 64 random sets and all ten; from a cold and a warm memo; and
// before Start. Entries outside the set must be left alone or hold their
// true value, and a fill from a cold memo must leave the memo as it was.
func TestDemandIntoMatchesReferenceBitExact(t *testing.T) {
	rng := stats.NewRNG(64)
	var masks []sim.ResourceSet
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		masks = append(masks, sim.ResourceSet(1)<<r)
	}
	for i := 0; i < 64; i++ {
		masks = append(masks, sim.ResourceSet(rng.Uint64())&sim.EveryResource)
	}
	masks = append(masks, sim.EveryResource)
	// Start is 6, so the first two ticks have rel < 0 and 6 has rel == 0.
	ticks := []sim.Tick{0, 5, 6, 7, 46, 171, 1024, 3005, 3006, 4099, 8191}
	const untouched = -1.0
	for gi, g := range Generators() {
		for variant := 0; variant < 3; variant++ {
			spec := g.Make(stats.NewRNG(uint64(gi*31+variant)), variant)
			for _, jitter := range []float64{0, spec.Jitter} {
				spec.Jitter = jitter
				for _, p := range referencePatterns {
					app := NewApp(spec, p, uint64(gi)<<8|uint64(variant))
					app.Start = 6
					for _, tick := range ticks {
						want := referenceDemand(app, tick)
						for _, warm := range []bool{false, true} {
							if warm {
								app.Demand(tick) // a memo hit from here on (none before Start)
							}
							memoTick, memoValid := app.memoTick, app.memoValid
							for _, need := range masks {
								var out sim.Vector
								for r := range out {
									out[r] = untouched
								}
								app.DemandInto(tick, &out, need)
								for r := sim.Resource(0); r < sim.NumResources; r++ {
									got := math.Float64bits(out[r])
									if need.Has(r) && got != math.Float64bits(want[r]) ||
										!need.Has(r) && out[r] != untouched && got != math.Float64bits(want[r]) {
										t.Fatalf("%s jitter=%v %T tick %d warm=%v need %010b: entry %v = %v, want %v",
											spec.Label, jitter, p, tick, warm, need, r, out[r], want[r])
									}
								}
							}
							if app.memoTick != memoTick || app.memoValid != memoValid {
								t.Fatalf("%s tick %d warm=%v: DemandInto wrote the memo", spec.Label, tick, warm)
							}
						}
					}
				}
			}
		}
	}
}

func TestDemandMemoTracksStart(t *testing.T) {
	spec := Memcached(stats.NewRNG(1), 0)
	a := NewApp(spec, Diurnal{Min: 0.1, Max: 0.9, Period: 40}, 7)
	atZero := a.Demand(5)
	a.Start = 3
	moved := a.Demand(5)
	if want := referenceDemand(a, 5); moved != want {
		t.Fatalf("Demand(5) after Start = 3 served a stale memo:\n got %v\nwant %v", moved, want)
	}
	if moved == atZero {
		t.Fatal("test is vacuous: Start 0 and Start 3 give the same demand at tick 5")
	}
}
