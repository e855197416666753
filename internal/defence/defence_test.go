package defence

import (
	"strings"
	"testing"

	"bolt/internal/sim"
)

func usage(vals map[sim.Resource]float64) sim.Vector {
	var v sim.Vector
	for r, x := range vals {
		v.Set(r, x)
	}
	return v
}

func TestCPUThresholdFiresOnSustainedLoad(t *testing.T) {
	d := NewCPUThreshold()
	hot := usage(map[sim.Resource]float64{sim.CPU: 90})
	for i := sim.Tick(0); i < 59; i++ {
		d.Observe(i, hot)
	}
	if alarmed, _ := d.Alarmed(); alarmed {
		t.Fatal("fired before the sustain window elapsed")
	}
	d.Observe(59, hot)
	alarmed, at := d.Alarmed()
	if !alarmed {
		t.Fatal("sustained 90% CPU should fire")
	}
	if at != 59 {
		t.Fatalf("alarm time %d, want 59", at)
	}
}

func TestCPUThresholdResetsOnDip(t *testing.T) {
	d := NewCPUThreshold()
	hot := usage(map[sim.Resource]float64{sim.CPU: 90})
	cool := usage(map[sim.Resource]float64{sim.CPU: 30})
	for i := sim.Tick(0); i < 50; i++ {
		d.Observe(i, hot)
	}
	d.Observe(50, cool) // dip resets the counter
	for i := sim.Tick(51); i < 100; i++ {
		d.Observe(i, hot)
	}
	if alarmed, _ := d.Alarmed(); alarmed {
		t.Fatal("non-sustained load must not fire")
	}
}

func TestCPUThresholdIgnoresOtherResources(t *testing.T) {
	d := NewCPUThreshold()
	// Bolt's evasion: hammer everything except the CPU.
	attack := usage(map[sim.Resource]float64{
		sim.LLC: 100, sim.MemBW: 100, sim.NetBW: 100, sim.DiskBW: 100,
	})
	for i := sim.Tick(0); i < 500; i++ {
		d.Observe(i, attack)
	}
	if alarmed, _ := d.Alarmed(); alarmed {
		t.Fatal("a CPU-threshold defence must be blind to uncore contention")
	}
}

func TestAnomalyCatchesUncoreAttack(t *testing.T) {
	d := NewMultiResourceAnomaly()
	normal := usage(map[sim.Resource]float64{
		sim.CPU: 35, sim.LLC: 50, sim.MemBW: 45, sim.NetBW: 40,
	})
	for i := sim.Tick(0); i < 100; i++ {
		d.Observe(i, normal)
	}
	// Bolt launches: LLC and memBW jump, CPU stays flat.
	attack := usage(map[sim.Resource]float64{
		sim.CPU: 35, sim.LLC: 100, sim.MemBW: 95, sim.NetBW: 40,
	})
	for i := sim.Tick(100); i < 200; i++ {
		d.Observe(i, attack)
	}
	alarmed, at := d.Alarmed()
	if !alarmed {
		t.Fatal("the multi-resource detector should catch an uncore attack")
	}
	if at < 100 {
		t.Fatalf("alarm at %d is before the attack began", at)
	}
}

func TestAnomalyToleratesNoise(t *testing.T) {
	d := NewMultiResourceAnomaly()
	base := 50.0
	for i := sim.Tick(0); i < 400; i++ {
		// ±6-point sawtooth around the baseline: ordinary load variation.
		v := base + float64(i%13) - 6
		d.Observe(i, usage(map[sim.Resource]float64{sim.LLC: v, sim.CPU: v * 0.7}))
	}
	if alarmed, _ := d.Alarmed(); alarmed {
		t.Fatal("ordinary variation must not fire the anomaly detector")
	}
}

func TestAnomalyNeedsSustain(t *testing.T) {
	d := NewMultiResourceAnomaly()
	normal := usage(map[sim.Resource]float64{sim.LLC: 50})
	for i := sim.Tick(0); i < 100; i++ {
		d.Observe(i, normal)
	}
	// A brief spike shorter than the sustain window.
	spike := usage(map[sim.Resource]float64{sim.LLC: 100})
	for i := sim.Tick(100); i < 110; i++ {
		d.Observe(i, spike)
	}
	for i := sim.Tick(110); i < 200; i++ {
		d.Observe(i, normal)
	}
	if alarmed, _ := d.Alarmed(); alarmed {
		t.Fatal("a 10-sample spike must not fire a 20-sample-sustain detector")
	}
}

func TestHostUsageAggregates(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	a := &sim.VM{ID: "a", VCPUs: 2, App: constApp{usage(map[sim.Resource]float64{sim.LLC: 30})}}
	b := &sim.VM{ID: "b", VCPUs: 2, App: constApp{usage(map[sim.Resource]float64{sim.LLC: 25})}}
	for _, vm := range []*sim.VM{a, b} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	if got := HostUsage(s, 0)[sim.LLC]; got != 55 {
		t.Fatalf("aggregate LLC usage = %v, want 55", got)
	}
}

type constApp struct{ d sim.Vector }

func (c constApp) Demand(sim.Tick) sim.Vector { return c.d }
func (c constApp) DemandInto(_ sim.Tick, out *sim.Vector, _ sim.ResourceSet) {
	*out = c.d
}
func (c constApp) Sensitivity() sim.Vector { return sim.Vector{} }

func TestVerdictString(t *testing.T) {
	v := Verdict{Detector: "cpu-threshold", Alarmed: false}
	if !strings.Contains(v.String(), "no alarm") {
		t.Fatalf("verdict string %q", v.String())
	}
	v = Verdict{Detector: "x", Alarmed: true, At: 600}
	if !strings.Contains(v.String(), "60s") {
		t.Fatalf("verdict string %q", v.String())
	}
}
