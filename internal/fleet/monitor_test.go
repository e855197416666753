package fleet

import (
	"testing"

	"bolt/internal/defence"
	"bolt/internal/sim"
)

// TestMonitorAlarmEvents pins the engine↔defence wiring: an attached
// monitor is sampled every tick, its alarm edge surfaces exactly once as a
// MonitorAlarm event carrying the firing tick, its events interleave after
// the tick body's own events for the same server, and resetting the
// monitor re-arms it for a second edge.
func TestMonitorAlarmEvents(t *testing.T) {
	e := buildFleet(7, 4)
	// The fleet's VMs run at 0.9 load, so a low CPU bar with a short
	// sustain fires quickly and deterministically.
	e.SetMonitor(2, defence.NewMonitor(&defence.CPUThreshold{Threshold: 5, Sustain: 3}))

	if e.Monitor(2) == nil || e.Monitor(1) != nil {
		t.Fatal("SetMonitor/Monitor accessor mismatch")
	}

	var alarms []Event
	for tick := 0; tick < 8; tick++ {
		ev, _ := e.Tick(sim.Tick(tick), probeTick)
		for _, x := range ev {
			if x.Kind == MonitorAlarm {
				alarms = append(alarms, x)
			}
		}
	}
	if len(alarms) != 1 {
		t.Fatalf("got %d MonitorAlarm events, want exactly 1 (the edge)", len(alarms))
	}
	if alarms[0].Server != 2 {
		t.Fatalf("alarm attributed to server %d, want 2", alarms[0].Server)
	}
	if alarms[0].Value != 2 { // sustain 3 → samples at ticks 0,1,2 fire at 2
		t.Fatalf("alarm tick %v, want 2", alarms[0].Value)
	}

	// Re-arm and tick again: a second edge must surface.
	e.Monitor(2).Reset()
	second := 0
	for tick := 8; tick < 16; tick++ {
		ev, _ := e.Tick(sim.Tick(tick), probeTick)
		for _, x := range ev {
			if x.Kind == MonitorAlarm {
				second++
			}
		}
	}
	if second != 1 {
		t.Fatalf("re-armed monitor produced %d edges, want 1", second)
	}
}

// TestMonitorAlarmOrderedAfterBodyEvents checks the per-server event
// order: the monitor samples after the tick body, so for the same server
// and tick the body's events precede the MonitorAlarm.
func TestMonitorAlarmOrderedAfterBodyEvents(t *testing.T) {
	e := buildFleet(7, 2)
	e.SetMonitor(0, defence.NewMonitor(&defence.CPUThreshold{Threshold: 5, Sustain: 1}))

	emitAlways := func(w *World) { w.Emit(99, "", 0) }
	ev, _ := e.Tick(0, emitAlways)
	var kinds []int
	for _, x := range ev {
		if x.Server == 0 {
			kinds = append(kinds, x.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != 99 || kinds[1] != MonitorAlarm {
		t.Fatalf("server 0 event kinds = %v, want [99, MonitorAlarm]", kinds)
	}
}

// TestMonitorParityAcrossShardWorkers extends the determinism contract to
// monitored fleets: alarm events, and the ticks each advance stops after,
// are identical at every worker count. Monitors run ahead on the caller;
// once they have fired (the first advance stops at their alarm) the rest
// of the fleet's span is above the fan-out grain (runFleet checks the
// shard count), so the unmonitored servers really run on several
// goroutines beside the monitored ones' results.
func TestMonitorParityAcrossShardWorkers(t *testing.T) {
	const servers, span, advances = 131, 32, 2
	run := func(workers int) []Event {
		all, _ := runFleet(t, workers, servers, span, advances, func(e *Engine) {
			for i := 0; i < servers; i += 3 {
				e.SetMonitor(i, defence.NewMonitor(&defence.CPUThreshold{Threshold: 5, Sustain: 2}))
			}
		})
		return all
	}
	ref := run(1)
	alarms := 0
	for _, x := range ref {
		if x.Kind == MonitorAlarm {
			alarms++
		}
	}
	if alarms == 0 {
		t.Fatal("reference run raised no alarms; the parity check would be vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: event %d = %+v, want %+v", workers, i, got[i], ref[i])
			}
		}
	}
}
