package defence

import (
	"math"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// loadedServer returns a server carrying one VM driven at the given level.
func loadedServer(t *testing.T, level float64) *sim.Server {
	t.Helper()
	s := sim.NewServer("host", sim.ServerConfig{})
	spec := workload.Memcached(stats.NewRNG(1), 0)
	spec.Jitter = 0
	app := workload.NewApp(spec, workload.Constant{Level: level}, 1)
	if err := s.Place(&sim.VM{ID: "vm", VCPUs: 4, App: app}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCPUThresholdResetRearms(t *testing.T) {
	d := &CPUThreshold{Threshold: 50, Sustain: 3}
	hot := usage(map[sim.Resource]float64{sim.CPU: 90})
	for i := sim.Tick(0); i < 3; i++ {
		d.Observe(i, hot)
	}
	if alarmed, _ := d.Alarmed(); !alarmed {
		t.Fatal("precondition: detector should have fired")
	}

	d.Reset()
	if alarmed, _ := d.Alarmed(); alarmed {
		t.Fatal("Reset left the alarm latched")
	}
	if d.Threshold != 50 || d.Sustain != 3 {
		t.Fatal("Reset clobbered configuration")
	}

	// The streak must restart from zero: two hot samples (below Sustain)
	// must not fire, the third must.
	d.Observe(100, hot)
	d.Observe(101, hot)
	if alarmed, _ := d.Alarmed(); alarmed {
		t.Fatal("streak survived Reset: fired before a fresh sustain window")
	}
	d.Observe(102, hot)
	alarmed, at := d.Alarmed()
	if !alarmed {
		t.Fatal("re-armed detector never fired on a fresh sustained load")
	}
	if at != 102 {
		t.Fatalf("re-fire at %d, want 102", at)
	}
}

func TestAnomalyResetRearmsAndRelearnsBaseline(t *testing.T) {
	d := &MultiResourceAnomaly{Warmup: 5, Sigma: 3, Sustain: 2}
	quiet := usage(map[sim.Resource]float64{sim.CPU: 30, sim.LLC: 40})
	spike := usage(map[sim.Resource]float64{sim.CPU: 30, sim.LLC: 95})
	tick := sim.Tick(0)
	feed := func(v sim.Vector, n int) {
		for i := 0; i < n; i++ {
			d.Observe(tick, v)
			tick++
		}
	}
	feed(quiet, 5) // warm-up
	feed(spike, 2)
	if alarmed, _ := d.Alarmed(); !alarmed {
		t.Fatal("precondition: anomaly should have fired")
	}

	d.Reset()
	if alarmed, _ := d.Alarmed(); alarmed {
		t.Fatal("Reset left the alarm latched")
	}
	if d.Warmup != 5 || d.Sigma != 3 || d.Sustain != 2 {
		t.Fatal("Reset clobbered configuration")
	}

	// After a migration the tenant mix changes; the detector must re-learn
	// its baseline. Feed a *different* quiet level as the new normal: the
	// old baseline would call it anomalous, the re-learned one must not.
	newQuiet := usage(map[sim.Resource]float64{sim.CPU: 70, sim.LLC: 75})
	feed(newQuiet, 5) // new warm-up
	feed(newQuiet, 20)
	if alarmed, _ := d.Alarmed(); alarmed {
		t.Fatal("re-armed detector kept the stale baseline: steady load fired")
	}
	// And it still catches a fresh deviation from the new baseline.
	feed(usage(map[sim.Resource]float64{sim.CPU: 70, sim.LLC: 10}), 2)
	if alarmed, _ := d.Alarmed(); !alarmed {
		t.Fatal("re-armed detector never fired on a fresh anomaly")
	}
}

func TestMonitorReportsAlarmEdgeOnce(t *testing.T) {
	s := loadedServer(t, 0.9)
	m := NewMonitor(&CPUThreshold{Threshold: 10, Sustain: 3})
	edges := 0
	for tick := sim.Tick(0); tick < 10; tick++ {
		if m.Sample(s, tick) {
			edges++
		}
	}
	if edges != 1 {
		t.Fatalf("alarm edge reported %d times, want exactly once", edges)
	}
	if alarmed, _ := m.Det.Alarmed(); !alarmed {
		t.Fatal("latched state should remain visible after the edge")
	}
}

func TestMonitorResetRearms(t *testing.T) {
	s := loadedServer(t, 0.9)
	m := NewMonitor(&CPUThreshold{Threshold: 10, Sustain: 2})
	tick := sim.Tick(0)
	waitEdge := func() bool {
		for i := 0; i < 10; i++ {
			if m.Sample(s, tick) {
				return true
			}
			tick++
		}
		return false
	}
	if !waitEdge() {
		t.Fatal("first alarm edge never fired")
	}
	m.Reset()
	if alarmed, _ := m.Det.Alarmed(); alarmed {
		t.Fatal("Reset left the monitor's detector latched")
	}
	if !waitEdge() {
		t.Fatal("re-armed monitor never fired a second edge")
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	if m.Sample(loadedServer(t, 0.5), 0) {
		t.Fatal("nil monitor reported an edge")
	}
	m.Reset() // must not panic

	empty := &Monitor{} // no detector
	if empty.Sample(loadedServer(t, 0.5), 0) {
		t.Fatal("detector-less monitor reported an edge")
	}
	empty.Reset()
}

func TestMovingTargetCadence(t *testing.T) {
	p := NewMovingTarget(10)
	p.Track("victim", 0)
	p.Track("victim", 5) // re-tracking must not restart the clock

	if p.Due("victim", 9) {
		t.Fatal("due before the period elapsed")
	}
	if !p.Due("victim", 10) {
		t.Fatal("not due at the cadence edge")
	}
	if p.Due("stranger", 1000) {
		t.Fatal("untracked VM reported due")
	}

	p.Moved("victim", 12)
	if p.Due("victim", 21) {
		t.Fatal("due again before a full period since the move")
	}
	if !p.Due("victim", 22) {
		t.Fatal("not due a full period after the move")
	}
	if p.Moves() != 1 {
		t.Fatalf("Moves() = %d, want 1", p.Moves())
	}
}

func TestMovingTargetFailedMoveStaysDue(t *testing.T) {
	// A failed migration (full cluster) must not call Moved; the VM stays
	// due so the move is retried immediately instead of waiting a period.
	p := NewMovingTarget(10)
	p.Track("victim", 0)
	if !p.Due("victim", 10) {
		t.Fatal("precondition: due at the edge")
	}
	// ... migration fails; no Moved call ...
	if !p.Due("victim", 11) {
		t.Fatal("VM no longer due after a failed (unrecorded) move")
	}
	if p.Moves() != 0 {
		t.Fatalf("Moves() = %d after only failures, want 0", p.Moves())
	}
}

func TestMovingTargetZeroValueDefaults(t *testing.T) {
	var p MovingTarget // zero value: default period, lazily allocated map
	p.Track("v", 0)
	if p.Due("v", DefaultMTDPeriod-1) {
		t.Fatal("zero-value policy due before the default period")
	}
	if !p.Due("v", DefaultMTDPeriod) {
		t.Fatal("zero-value policy not due at the default period")
	}
	var q MovingTarget
	q.Moved("w", 7) // must not panic on nil map
	if q.Moves() != 1 {
		t.Fatalf("Moves() = %d, want 1", q.Moves())
	}
}

// TestMovingTargetNextDue pins the cadence horizon against Due: NextDue(t)
// is the first tick at or after t at which Due reports some tracked VM.
func TestMovingTargetNextDue(t *testing.T) {
	var zero MovingTarget
	if got := zero.NextDue(5); got != math.MaxInt64 {
		t.Fatalf("nothing tracked: NextDue = %d, want the largest Tick", got)
	}

	p := NewMovingTarget(10)
	p.Track("a", 0)
	p.Track("b", 3)
	p.Track("c", 7)
	if got := p.NextDue(0); got != 10 {
		t.Fatalf("NextDue(0) = %d, want 10 (the minimum over a, b, c)", got)
	}
	p.Moved("a", 4)
	if got := p.NextDue(4); got != 13 {
		t.Fatalf("after a moved at 4: NextDue = %d, want 13 (b's edge)", got)
	}
	// b is overdue from 13 on (a failed move records nothing), so the
	// horizon is the query tick itself.
	for _, at := range []sim.Tick{13, 15, 40} {
		if got := p.NextDue(at); got != at {
			t.Fatalf("b overdue: NextDue(%d) = %d, want %d", at, got, at)
		}
	}

	// Stepping from horizon to horizon: every tick before one has nothing
	// due, the horizon itself has.
	q := NewMovingTarget(8)
	ids := []string{"x", "y", "z"}
	for i, id := range ids {
		q.Track(id, sim.Tick(3*i))
	}
	for from, next := sim.Tick(0), sim.Tick(0); from < 60; from = next + 1 {
		next = q.NextDue(from)
		for tt := from; tt <= next; tt++ {
			due := false
			for _, id := range ids {
				due = due || q.Due(id, tt)
			}
			if due != (tt == next) {
				t.Fatalf("NextDue(%d) = %d, but Due at %d is %v", from, next, tt, due)
			}
		}
		for _, id := range ids {
			if q.Due(id, next) {
				q.Moved(id, next)
			}
		}
	}
}
