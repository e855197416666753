package fleet

import (
	"testing"

	"bolt/internal/defence"
	"bolt/internal/sim"
)

// TestMonitorEdgesSurfaceAsEvents pins the engine↔defence wiring: an attached
// monitor is sampled every tick, its alarm edge surfaces exactly once as an
// Event naming its server, at the tick it fired, and resetting the monitor
// re-arms it for a second edge.
func TestMonitorEdgesSurfaceAsEvents(t *testing.T) {
	e := buildFleet(7, 4)
	// The fleet's VMs run at 0.9 load, so a low CPU bar with a short
	// sustain fires quickly and deterministically.
	e.SetMonitor(2, defence.NewMonitor(&defence.CPUThreshold{Threshold: 5, Sustain: 3}))

	if e.Monitor(2) == nil || e.Monitor(1) != nil {
		t.Fatal("SetMonitor/Monitor accessor mismatch")
	}

	body := accBody(make([]float64, 4))
	var alarms []Event
	var at []sim.Tick
	for tick := sim.Tick(0); tick < 8; tick++ {
		ev, _ := e.Advance(tick, 1, body)
		for _, x := range ev {
			alarms, at = append(alarms, x), append(at, tick)
		}
	}
	if len(alarms) != 1 {
		t.Fatalf("got %d alarms, want exactly 1 (the edge)", len(alarms))
	}
	if alarms[0].Server != 2 {
		t.Fatalf("alarm attributed to server %d, want 2", alarms[0].Server)
	}
	if at[0] != 2 { // sustain 3 → samples at ticks 0,1,2 fire at 2
		t.Fatalf("alarm tick %v, want 2", at[0])
	}

	// Re-arm and tick again: a second edge must surface.
	e.Monitor(2).Reset()
	second := 0
	for tick := sim.Tick(8); tick < 16; tick++ {
		ev, _ := e.Advance(tick, 1, body)
		second += len(ev)
	}
	if second != 1 {
		t.Fatalf("re-armed monitor produced %d edges, want 1", second)
	}
}

// TestMonitorParityAcrossShardWorkers extends the determinism contract to
// monitored fleets: alarms, the ticks each advance stops after and the
// servers' tick-body results are identical at every worker count. Monitors
// run ahead on the caller; once they have fired (the first advance stops
// at their alarm) the rest of the fleet's span is above the fan-out grain
// (runFleet checks the shard count), so the unmonitored servers really run
// on several goroutines beside the monitored ones' results.
func TestMonitorParityAcrossShardWorkers(t *testing.T) {
	const servers, span, advances = 131, 32, 2
	run := func(workers int) fleetRun {
		return runFleet(t, workers, servers, span, advances, func(e *Engine) {
			for i := 0; i < servers; i += 3 {
				e.SetMonitor(i, defence.NewMonitor(&defence.CPUThreshold{Threshold: 5, Sustain: 2}))
			}
		})
	}
	ref := run(1)
	if len(ref.alarms[0]) == 0 {
		t.Fatal("reference run raised no alarms; the parity check would be vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		matchRuns(t, "monitored", run(workers), ref)
	}
}
