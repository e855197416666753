// Moving-target defence: instead of (or in addition to) hardening
// placement, the provider periodically re-places protected VMs so that a
// co-residency an attacker worked to establish stops paying off. The
// policy here follows the moving-target literature the ROADMAP cites: a
// deterministic re-placement cadence as the baseline (the attacker can
// never rely on more than one cadence period of co-residency), accelerated
// by per-host Monitor alarms when a detector sees attack-like pressure.
package defence

import (
	"math"

	"bolt/internal/sim"
)

// Monitor couples one host with a Detector and tracks the alarm *edge*:
// Sample reports true exactly once, on the tick the detector first fires,
// so a caller acting on alarms (migrating the host's victims, resetting
// the detector) does not re-act on a latched alarm every subsequent tick.
//
// A Monitor holds per-host mutable state and is driven from exactly one
// goroutine — inside a fleet tick that is the host's own shard, which is
// what makes monitors safe under sharded fleet ticking.
type Monitor struct {
	Det Detector

	fired bool
}

// NewMonitor wraps a detector for per-host fleet monitoring.
func NewMonitor(det Detector) *Monitor { return &Monitor{Det: det} }

// Sample feeds the host's aggregate usage at tick t into the detector and
// reports whether the alarm fired on this very sample (the alarm edge).
func (m *Monitor) Sample(s *sim.Server, t sim.Tick) bool {
	if m == nil || m.Det == nil {
		return false
	}
	m.Det.Observe(t, s.HostDemand(t))
	alarmed, _ := m.Det.Alarmed()
	if alarmed && !m.fired {
		m.fired = true
		return true
	}
	return false
}

// Reset re-arms the monitor and its detector so the same Monitor keeps
// watching the host after the defence acted on an alarm.
func (m *Monitor) Reset() {
	if m == nil || m.Det == nil {
		return
	}
	m.Det.Reset()
	m.fired = false
}

// MovingTarget decides *when* a protected VM should be re-placed. It keeps
// one clock per tracked VM: a VM is due when Period ticks have elapsed
// since its last move (or since tracking began). The decision layer is
// deliberately separate from the mechanism — internal/cluster.Migrate does
// the re-placement — so the policy composes with any scheduler and its
// failure handling (a full cluster means the move is simply retried at the
// next cadence edge; see Moved).
type MovingTarget struct {
	// Period is the re-placement cadence in ticks; 0 means 32 (3.2 s of
	// simulated time — twice per 16-tick probe window, so a probe score
	// averaged over a window sees the victim for at most half of it).
	Period sim.Tick

	last  map[string]sim.Tick
	moves int
}

// DefaultMTDPeriod is the cadence used when MovingTarget.Period is zero.
const DefaultMTDPeriod sim.Tick = 32

// NewMovingTarget returns the policy with the given cadence (0 = default).
func NewMovingTarget(period sim.Tick) *MovingTarget {
	if period <= 0 {
		period = DefaultMTDPeriod
	}
	return &MovingTarget{Period: period, last: map[string]sim.Tick{}}
}

// Track registers a protected VM, starting its cadence clock at t. Already
// tracked VMs keep their clock.
func (p *MovingTarget) Track(id string, t sim.Tick) {
	if p.last == nil {
		p.last = map[string]sim.Tick{}
	}
	if _, ok := p.last[id]; !ok {
		p.last[id] = t
	}
}

// Due reports whether the tracked VM's cadence has elapsed at t. Untracked
// VMs are never due.
func (p *MovingTarget) Due(id string, t sim.Tick) bool {
	period := p.Period
	if period <= 0 {
		period = DefaultMTDPeriod
	}
	last, ok := p.last[id]
	return ok && t-last >= period
}

// NextDue returns the first tick at or after t at which some tracked VM is
// due — the horizon up to which nothing can fall due, so a caller stepping
// time can jump straight to it. A VM already overdue at t (its last move
// failed) makes the answer t itself; with nothing tracked no tick is ever
// due and NextDue returns the largest Tick.
func (p *MovingTarget) NextDue(t sim.Tick) sim.Tick {
	period := p.Period
	if period <= 0 {
		period = DefaultMTDPeriod
	}
	next := sim.Tick(math.MaxInt64)
	for _, last := range p.last {
		if d := last + period; d < next {
			next = d
		}
	}
	if next < t {
		return t
	}
	return next
}

// Moved records a successful re-placement of the VM at t, restarting its
// cadence clock. A failed migration (ErrClusterFull) must NOT be recorded:
// leaving the clock alone keeps the VM due, so the move is retried on the
// next tick instead of silently skipping a whole period.
func (p *MovingTarget) Moved(id string, t sim.Tick) {
	if p.last == nil {
		p.last = map[string]sim.Tick{}
	}
	p.last[id] = t
	p.moves++
}

// Moves returns how many re-placements the policy has recorded — the
// defender's cost metric (each move is a live migration with an outage).
func (p *MovingTarget) Moves() int { return p.moves }
