package probe

import (
	"reflect"
	"testing"

	"bolt/internal/fault"
	"bolt/internal/sim"
	"bolt/internal/stats"
)

// probeFailureOnly is a fault config where every ramp transiently fails and
// nothing else fires — the deterministic worst case for the retry path.
func probeFailureOnly(rate float64) fault.Config {
	return fault.Config{Rate: rate,
		DisableDropout: true, DisableCorruption: true, DisableChurn: true}
}

func dropoutOnly(rate float64) fault.Config {
	return fault.Config{Rate: rate,
		DisableCorruption: true, DisableChurn: true, DisableProbeFailure: true}
}

func churnOnly(rate float64) fault.Config {
	return fault.Config{Rate: rate,
		DisableDropout: true, DisableCorruption: true, DisableProbeFailure: true}
}

func emptyHostAdv(t *testing.T, fcfg fault.Config, seed uint64) (*sim.Server, *Adversary) {
	t.Helper()
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 4, Config{NoiseSD: 0.001, Faults: fcfg}, stats.NewRNG(seed))
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	return s, adv
}

func TestMeasureRetriesWithCappedBackoff(t *testing.T) {
	// Probe failure at rate 1: every attempt fails, so measure runs the
	// initial ramp plus fault.MaxRetries retries, then gives up. On an empty
	// 4-vCPU-adversary host one ramp is exactly 25 ticks (step 4 up to
	// intensity 100, 1 tick per step), and the backoff sequence between the
	// four attempts is 1+2+4 ticks.
	s, adv := emptyHostAdv(t, probeFailureOnly(1), 21)
	m, ok := adv.measure(s, sim.MemBW, 0)
	if ok {
		t.Fatal("measure succeeded although every attempt fails")
	}
	const wantTicks = 4*25 + (1 + 2 + 4)
	if m.Ticks != wantTicks {
		t.Errorf("m.Ticks = %d, want %d (4 ramps + capped backoff)", m.Ticks, wantTicks)
	}
	counts := adv.FaultPlane().Counts()
	if got := counts[fault.ProbeFailure]; got != 4 {
		t.Errorf("Counts[ProbeFailure] = %d, want 4 (initial attempt + 3 retries)", got)
	}
	if counts[fault.Dropout] != 0 || counts[fault.Corruption] != 0 || counts[fault.Churn] != 0 {
		t.Errorf("other classes fired: %v", counts)
	}
}

func TestMeasureDropoutSpendsTicksLosesValue(t *testing.T) {
	s, adv := emptyHostAdv(t, dropoutOnly(1), 23)
	m, ok := adv.measure(s, sim.NetBW, 0)
	if ok {
		t.Fatal("dropped measurement reported ok")
	}
	if m.Ticks != 25 {
		t.Errorf("m.Ticks = %d, want 25 (the ramp ran; only the value is lost)", m.Ticks)
	}
	counts := adv.FaultPlane().Counts()
	if counts[fault.Dropout] != 1 || counts[fault.ProbeFailure] != 0 {
		t.Errorf("counts = %v, want exactly one dropout", counts)
	}
}

func TestMeasureWithoutPlaneIsPlainRamp(t *testing.T) {
	// Two adversaries with identical seeds, one through measure and one
	// through Ramp: without a fault plane they must agree exactly, because
	// the disabled path adds no draws and no tick accounting.
	s1, a1 := emptyHostAdv(t, fault.Config{}, 24)
	s2, a2 := emptyHostAdv(t, fault.Config{}, 24)
	if a1.FaultPlane().Enabled() {
		t.Fatal("zero fault config built a plane")
	}
	m1, ok := a1.measure(s1, sim.DiskBW, 0)
	if !ok {
		t.Fatal("fault-free measure reported not ok")
	}
	m2 := a2.Ramp(s2, sim.DiskBW, 0)
	if m1 != m2 {
		t.Errorf("measure = %+v, Ramp = %+v; must be identical without a plane", m1, m2)
	}
}

func TestProfileOnceAllDroppedGoesOutSparse(t *testing.T) {
	// Dropout at rate 1 loses every measurement: the profile must come back
	// fully unobserved but still record which ramps ran (and their time),
	// and the lost first core measurement must trigger the §3.2 extra
	// uncore benchmark exactly as a silent core does.
	s, adv := emptyHostAdv(t, dropoutOnly(1), 25)
	p := adv.ProfileOnce(s, 0, 0)
	for r, known := range p.Known {
		if known {
			t.Errorf("resource %v marked known although every measurement dropped", sim.Resource(r))
		}
	}
	if p.Observed != (sim.Vector{}) {
		t.Errorf("Observed = %v, want zero vector", p.Observed)
	}
	if len(p.Resources) != 3 {
		t.Errorf("len(Resources) = %d, want 3 (core + uncore + extra uncore for the lost core)", len(p.Resources))
	}
	if p.Ticks < 3*25 {
		t.Errorf("Ticks = %d, want at least the three ramps' worth", p.Ticks)
	}
	if p.CoreShared {
		t.Error("CoreShared true with no observed core measurement")
	}
	for j, k := range p.Known {
		if k {
			t.Fatalf("Known[%d] = true", j)
		}
	}
}

func TestProfileOnceDeterministicUnderFaults(t *testing.T) {
	run := func() Profile {
		s := sim.NewServer("s0", sim.ServerConfig{})
		adv := NewAdversary("adv", 4,
			Config{Faults: fault.Config{Rate: 0.5}}, stats.NewRNG(26))
		if err := s.Place(adv.VM); err != nil {
			t.Fatal(err)
		}
		placeVictim(t, s, "vic", 4, specWith(map[sim.Resource]float64{
			sim.MemBW: 60, sim.LLC: 45, sim.CPU: 30,
		}))
		return adv.ProfileOnce(s, 0, 2)
	}
	p1, p2 := run(), run()
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("same seed, different profiles:\n%+v\n%+v", p1, p2)
	}
}

func TestProfileOnceChurnRestoresPlacement(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 4, Config{Faults: churnOnly(1)}, stats.NewRNG(27))
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	placeVictim(t, s, "v1", 2, specWith(map[sim.Resource]float64{sim.MemBW: 50}))
	placeVictim(t, s, "v2", 2, specWith(map[sim.Resource]float64{sim.NetBW: 50}))

	churned := false
	for i := 0; i < 20 && !churned; i++ {
		p := adv.ProfileOnce(s, sim.Tick(i*200), 4)
		if p.Ticks <= 0 {
			t.Fatal("profile consumed no time")
		}
		churned = adv.FaultPlane().Counts()[fault.Churn] > 0
		// Settle ran: the scheduled placement is back regardless of what
		// churn did mid-profile.
		if got := len(s.VMs()); got != 3 {
			t.Fatalf("after ProfileOnce: %d VMs on host, want 3", got)
		}
	}
	if !churned {
		t.Fatal("churn-only plane at rate 1 never churned across 20 profiles")
	}
	for _, id := range []string{"adv", "v1", "v2"} {
		if s.Lookup(id) == nil {
			t.Errorf("VM %s missing after profiling", id)
		}
	}
}

func TestProfileCoreFaultsSettle(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{Cores: 4, ThreadsPerCore: 2})
	adv := NewAdversary("adv", 4, Config{Faults: fault.Config{Rate: 0.6}}, stats.NewRNG(28))
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	placeVictim(t, s, "vic", 2, specWith(map[sim.Resource]float64{
		sim.L1I: 70, sim.CPU: 55, sim.MemBW: 40,
	}))
	for i := 0; i < 10; i++ {
		adv.ProfileCore(s, sim.Tick(i*500))
		if got := len(s.VMs()); got != 2 {
			t.Fatalf("after ProfileCore: %d VMs on host, want 2", got)
		}
	}
}
