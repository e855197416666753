package fault

import (
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
)

// constApp is the minimal Demander for placement-only tests.
type constApp struct{}

func (constApp) Demand(sim.Tick) sim.Vector { return sim.Vector{} }
func (constApp) DemandInto(_ sim.Tick, out *sim.Vector, _ sim.ResourceSet) {
	*out = sim.Vector{}
}
func (constApp) Sensitivity() sim.Vector { return sim.Vector{} }

func newVM(id string, vcpus int) *sim.VM {
	return &sim.VM{ID: id, VCPUs: vcpus, App: constApp{}}
}

func TestDisabledConfigBuildsNilPlane(t *testing.T) {
	rng := stats.NewRNG(1)
	before := rng.Uint64()
	rng = stats.NewRNG(1)
	for _, cfg := range []Config{{}, {Rate: 0}, {Rate: -0.5}} {
		if p := New(cfg, rng); p != nil {
			t.Fatalf("New(%+v) = %v, want nil", cfg, p)
		}
	}
	// New must not have touched the stream for disabled configs.
	if got := rng.Uint64(); got != before {
		t.Fatalf("New consumed random draws for a disabled config: first draw %d, want %d", got, before)
	}
}

func TestNilPlaneIsANoOp(t *testing.T) {
	var p *Plane
	if p.Enabled() {
		t.Error("nil plane reports Enabled")
	}
	if c := p.Counts(); c != [NumClasses]uint64{} {
		t.Errorf("nil plane Counts = %v, want all zero", c)
	}
	if p.DropMeasurement(sim.LLC) {
		t.Error("nil plane drops measurements")
	}
	if p.ProbeFailed(sim.LLC) {
		t.Error("nil plane fails probes")
	}
	if got := p.Perturb(nil, sim.LLC, 0, 42.5); got != 42.5 {
		t.Errorf("nil plane Perturb(42.5) = %g, want passthrough", got)
	}

	s := sim.NewServer("s", sim.ServerConfig{})
	adv := newVM("adv", 2)
	if err := s.Place(adv); err != nil {
		t.Fatalf("Place: %v", err)
	}
	vic := newVM("vic", 2)
	if err := s.Place(vic); err != nil {
		t.Fatalf("Place: %v", err)
	}
	p.MaybeChurn(s, adv)
	if got := len(s.VMs()); got != 2 {
		t.Errorf("nil plane MaybeChurn changed placement: %d VMs, want 2", got)
	}
	p.Settle() // must not panic
}

func TestConfigDefaultsAndClamping(t *testing.T) {
	p := New(Config{Rate: 0.5}, stats.NewRNG(2))
	if !p.Enabled() {
		t.Fatal("plane with Rate 0.5 not enabled")
	}

	// Rates above 1 clamp to 1: every per-ramp decision fires.
	p = New(Config{Rate: 7}, stats.NewRNG(3))
	for i := 0; i < 50; i++ {
		if !p.DropMeasurement(sim.MemBW) {
			t.Fatalf("clamped rate-1 plane skipped dropout at draw %d", i)
		}
	}
	if got := p.Counts()[Dropout]; got != 50 {
		t.Errorf("Counts[Dropout] = %d, want 50", got)
	}
}

func TestDisabledClassesDrawNothing(t *testing.T) {
	// With every class disabled the stream must stay untouched, so a
	// later enabled decision sees exactly the draws a fresh stream would.
	cfg := Config{Rate: 1, DisableDropout: true, DisableCorruption: true,
		DisableChurn: true, DisableProbeFailure: true}
	p := New(cfg, stats.NewRNG(11))
	for i := 0; i < 20; i++ {
		if p.DropMeasurement(sim.CPU) || p.ProbeFailed(sim.CPU) {
			t.Fatal("disabled class fired")
		}
		if got := p.Perturb(nil, sim.CPU, sim.Tick(i), 50); got != 50 {
			t.Fatalf("disabled corruption perturbed reading to %g", got)
		}
	}
	if c := p.Counts(); c != [NumClasses]uint64{} {
		t.Fatalf("disabled classes counted faults: %v", c)
	}
	want := stats.NewRNG(11).Uint64()
	if got := p.rng.Uint64(); got != want {
		t.Fatalf("disabled classes consumed draws: next = %d, want %d", got, want)
	}
}

func TestDeterministicDecisionSequence(t *testing.T) {
	run := func() ([]bool, [NumClasses]uint64, []float64) {
		p := New(Config{Rate: 0.3}, stats.NewRNG(7))
		var decisions []bool
		var vals []float64
		for i := 0; i < 200; i++ {
			r := sim.Resource(i % sim.NumResources)
			decisions = append(decisions, p.DropMeasurement(r), p.ProbeFailed(r))
			vals = append(vals, p.Perturb(nil, r, sim.Tick(i), 50))
		}
		return decisions, p.Counts(), vals
	}
	d1, c1, v1 := run()
	d2, c2, v2 := run()
	if c1 != c2 {
		t.Fatalf("counts diverged: %v vs %v", c1, c2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("perturbed value %d diverged: %g vs %g", i, v1[i], v2[i])
		}
	}
}

func TestPerturbSpikesAreBounded(t *testing.T) {
	p := New(Config{Rate: 1}, stats.NewRNG(5))
	changed := 0
	for i := 0; i < 800; i++ {
		v := 50.0
		got := p.Perturb(nil, sim.LLC, sim.Tick(i), v)
		if got < 0 || got > 100 {
			t.Fatalf("Perturb output %g outside [0, 100]", got)
		}
		if got != v {
			changed++
			if diff := got - v; diff > spikeMax || diff < -spikeMax {
				t.Fatalf("spike magnitude %g exceeds spikeMax %g", diff, spikeMax)
			}
		}
	}
	if changed == 0 {
		t.Fatal("corruption at rate 1 never perturbed a reading")
	}
	// Some spikes may land exactly on v in principle, but never more
	// faults counted than readings taken, and at least every changed
	// reading was a counted fault.
	if got := p.Counts()[Corruption]; got < uint64(changed) || got > 800 {
		t.Errorf("Counts[Corruption] = %d, changed readings = %d", got, changed)
	}
}

func TestChurnRemovesCoResidentAndSettleRestores(t *testing.T) {
	s := sim.NewServer("s", sim.ServerConfig{})
	adv := newVM("adv", 2)
	v1 := newVM("v1", 2)
	v2 := newVM("v2", 2)
	for _, vm := range []*sim.VM{adv, v1, v2} {
		if err := s.Place(vm); err != nil {
			t.Fatalf("Place(%s): %v", vm.ID, err)
		}
	}

	p := New(Config{Rate: 1}, stats.NewRNG(9))
	removedOnce := false
	for i := 0; i < 200 && !removedOnce; i++ {
		p.MaybeChurn(s, adv)
		if s.Lookup("adv") == nil {
			t.Fatal("churn removed the adversary itself")
		}
		if len(s.VMs()) == 2 {
			removedOnce = true
			if s.Lookup("v1") != nil && s.Lookup("v2") != nil {
				t.Fatal("2 VMs on host but both victims still present")
			}
		}
	}
	if !removedOnce {
		t.Fatal("churn at rate 1 never removed a co-resident in 200 boundaries")
	}
	if got := p.Counts()[Churn]; got == 0 {
		t.Error("Counts[Churn] = 0 after a removal")
	}

	p.Settle()
	if got := len(s.VMs()); got != 3 {
		t.Fatalf("after Settle: %d VMs, want 3", got)
	}
	for _, id := range []string{"adv", "v1", "v2"} {
		if s.Lookup(id) == nil {
			t.Errorf("after Settle: VM %s missing", id)
		}
	}
	// Settle is idempotent.
	p.Settle()
	if got := len(s.VMs()); got != 3 {
		t.Fatalf("second Settle changed placement: %d VMs", got)
	}
}

func TestChurnNextBoundaryRestoresBeforeDrawing(t *testing.T) {
	// A VM held removed must come back at the next boundary even when that
	// boundary churns again (possibly removing a different co-resident):
	// at most one VM is ever missing.
	s := sim.NewServer("s", sim.ServerConfig{})
	adv := newVM("adv", 2)
	v1 := newVM("v1", 2)
	v2 := newVM("v2", 2)
	for _, vm := range []*sim.VM{adv, v1, v2} {
		if err := s.Place(vm); err != nil {
			t.Fatalf("Place(%s): %v", vm.ID, err)
		}
	}
	p := New(Config{Rate: 1}, stats.NewRNG(13))
	for i := 0; i < 200; i++ {
		p.MaybeChurn(s, adv)
		if got := len(s.VMs()); got < 2 || got > 3 {
			t.Fatalf("boundary %d: %d VMs on host, want 2 or 3", i, got)
		}
	}
	p.Settle()
	if got := len(s.VMs()); got != 3 {
		t.Fatalf("after Settle: %d VMs, want 3", got)
	}
}

func TestChurnWithNoCoResidentsInjectsNothing(t *testing.T) {
	s := sim.NewServer("s", sim.ServerConfig{})
	adv := newVM("adv", 4)
	if err := s.Place(adv); err != nil {
		t.Fatalf("Place: %v", err)
	}
	p := New(Config{Rate: 1}, stats.NewRNG(17))
	for i := 0; i < 100; i++ {
		p.MaybeChurn(s, adv)
	}
	if got := p.Counts()[Churn]; got != 0 {
		t.Errorf("Counts[Churn] = %d with no churn candidates, want 0", got)
	}
	if s.Lookup("adv") == nil {
		t.Error("adversary removed from a single-VM host")
	}
}

// TestFaultProfileDropsThenCorrupts drives the request-level entry point the
// detection service uses: dropout clears and zeroes known entries, surviving
// entries may pick up a bounded spike, unknown entries are never touched, and
// the returned counts are exactly what happened to the slices.
func TestFaultProfileDropsThenCorrupts(t *testing.T) {
	const n = 400
	fresh := func() ([]float64, []bool) {
		obs, known := make([]float64, n), make([]bool, n)
		for j := range obs {
			obs[j], known[j] = 50, j%2 == 0
		}
		return obs, known
	}

	obs, known := fresh()
	if d, c := (*Plane)(nil).FaultProfile(obs, known); d != 0 || c != 0 {
		t.Fatalf("nil plane injected: dropped %d, corrupted %d", d, c)
	}

	dropOnly := New(Config{Rate: 1, DisableCorruption: true}, stats.NewRNG(31))
	if d, c := dropOnly.FaultProfile(obs, known); d != n/2 || c != 0 {
		t.Fatalf("rate-1 dropout: dropped %d, corrupted %d, want %d, 0", d, c, n/2)
	}
	for j := range obs {
		if known[j] || (j%2 == 0 && obs[j] != 0) || (j%2 == 1 && obs[j] != 50) {
			t.Fatalf("entry %d after dropout: obs %g, known %v", j, obs[j], known[j])
		}
	}

	obs, known = fresh()
	spikeOnly := New(Config{Rate: 1, DisableDropout: true}, stats.NewRNG(32))
	d, c := spikeOnly.FaultProfile(obs, known)
	changed := 0
	for j := range obs {
		if known[j] != (j%2 == 0) {
			t.Fatalf("corruption changed known[%d]", j)
		}
		if diff := obs[j] - 50; diff != 0 {
			changed++
			if !known[j] || diff > spikeMax || diff < -spikeMax {
				t.Fatalf("entry %d (known %v) moved by %g, bound ±%g", j, known[j], diff, spikeMax)
			}
		}
	}
	if d != 0 || c != changed || c == 0 {
		t.Fatalf("dropped %d, corrupted %d, changed entries %d; want 0 and equal non-zero counts", d, c, changed)
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		Dropout: "dropout", Corruption: "corruption",
		Churn: "churn", ProbeFailure: "probe-failure",
	}
	for c, name := range want {
		if got := c.String(); got != name {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, name)
		}
	}
	if got := Class(99).String(); got != "Class(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}
