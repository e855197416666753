// Package defence implements the provider-side attack detectors the
// paper's DoS analysis argues about (§5.1): Bolt's attack is engineered to
// evade "DoS mitigation techniques, such as load-triggered VM migration",
// which watch CPU utilisation. This package provides that detector, plus a
// stronger multi-resource anomaly detector, so the evasion claim can be
// measured rather than asserted: the CPU-threshold defence fires on the
// naive attack and misses Bolt's, while a detector that baselines *every*
// shared resource catches Bolt too — at the price of watching signals
// providers do not usually monitor.
package defence

import (
	"fmt"
	"math"

	"bolt/internal/sim"
)

// Detector observes a host over time and reports whether its signal looks
// like an attack.
type Detector interface {
	// Observe feeds one utilisation sample per resource at time t.
	Observe(t sim.Tick, usage sim.Vector)
	// Alarmed reports whether the detector has fired, and when.
	Alarmed() (bool, sim.Tick)
	// Reset re-arms the detector: the alarm state and every learned
	// statistic are cleared, so the same value can watch the next episode
	// (or keep watching a host after the defence acted on the alarm).
	Reset()
	// Name identifies the policy in reports.
	Name() string
}

// CPUThreshold is the industry-standard load trigger: it fires when CPU
// utilisation stays above Threshold for Sustain consecutive samples. This
// is the sensor behind utilisation-triggered live migration.
type CPUThreshold struct {
	Threshold float64  // percent; 0 means 70
	Sustain   sim.Tick // samples above threshold before firing; 0 means 60

	above     sim.Tick
	start     sim.Tick
	alarmed   bool
	alarmedAt sim.Tick
}

// NewCPUThreshold returns the defence with the paper's parameters.
func NewCPUThreshold() *CPUThreshold {
	return &CPUThreshold{Threshold: 70, Sustain: 60}
}

// Name implements Detector.
func (c *CPUThreshold) Name() string { return "cpu-threshold" }

// Observe implements Detector.
func (c *CPUThreshold) Observe(t sim.Tick, usage sim.Vector) {
	if c.Threshold == 0 {
		c.Threshold = 70
	}
	if c.Sustain == 0 {
		c.Sustain = 60
	}
	if c.alarmed {
		return
	}
	if usage.Get(sim.CPU) > c.Threshold {
		if c.above == 0 {
			c.start = t
		}
		c.above++
		if c.above >= c.Sustain {
			c.alarmed = true
			c.alarmedAt = t
		}
	} else {
		c.above = 0
	}
}

// Alarmed implements Detector.
func (c *CPUThreshold) Alarmed() (bool, sim.Tick) { return c.alarmed, c.alarmedAt }

// Reset implements Detector: it clears the alarm and the above-threshold
// streak so the detector can be reused across episodes. Before this method
// existed a fired CPUThreshold stayed latched forever — a monitor driving
// migration could act on its alarm exactly once per process. Configuration
// (Threshold, Sustain) is preserved.
func (c *CPUThreshold) Reset() {
	c.above = 0
	c.start = 0
	c.alarmed = false
	c.alarmedAt = 0
}

// MultiResourceAnomaly learns a per-resource baseline (mean and variance,
// Welford's method) during a warm-up window, then fires when any resource's
// usage deviates from its baseline by more than Sigma standard deviations
// for Sustain consecutive samples. It catches contention-injection attacks
// that deliberately avoid the CPU.
type MultiResourceAnomaly struct {
	Warmup  sim.Tick // baseline-learning samples; 0 means 100
	Sigma   float64  // deviation threshold; 0 means 4
	Sustain sim.Tick // consecutive anomalous samples; 0 means 20

	n         sim.Tick
	mean      sim.Vector
	varAcc    sim.Vector
	anomalous sim.Tick
	alarmed   bool
	alarmedAt sim.Tick
}

// NewMultiResourceAnomaly returns the detector with defaults.
func NewMultiResourceAnomaly() *MultiResourceAnomaly {
	return &MultiResourceAnomaly{Warmup: 100, Sigma: 4, Sustain: 20}
}

// Name implements Detector.
func (m *MultiResourceAnomaly) Name() string { return "multi-resource-anomaly" }

// Observe implements Detector.
func (m *MultiResourceAnomaly) Observe(t sim.Tick, usage sim.Vector) {
	if m.Warmup == 0 {
		m.Warmup = 100
	}
	if m.Sigma == 0 {
		m.Sigma = 4
	}
	if m.Sustain == 0 {
		m.Sustain = 20
	}
	if m.alarmed {
		return
	}
	if m.n < m.Warmup {
		// Welford-style accumulation of the baseline.
		m.n++
		k := float64(m.n)
		for _, r := range sim.AllResources() {
			delta := usage.Get(r) - m.mean.Get(r)
			m.mean[r] += delta / k
			m.varAcc[r] += delta * (usage.Get(r) - m.mean.Get(r))
		}
		return
	}
	hit := false
	for _, r := range sim.AllResources() {
		sd := math.Sqrt(m.varAcc.Get(r) / float64(m.n))
		if sd < 2 {
			sd = 2 // floor: quiet resources still need real deviation
		}
		if math.Abs(usage.Get(r)-m.mean.Get(r)) > m.Sigma*sd {
			hit = true
			break
		}
	}
	if hit {
		m.anomalous++
		if m.anomalous >= m.Sustain {
			m.alarmed = true
			m.alarmedAt = t
		}
	} else {
		m.anomalous = 0
	}
}

// Alarmed implements Detector.
func (m *MultiResourceAnomaly) Alarmed() (bool, sim.Tick) { return m.alarmed, m.alarmedAt }

// Reset implements Detector: it clears the alarm, the anomaly streak, and
// the learned baseline, so a reused detector re-learns its warm-up from the
// host's current behaviour (after a migration the tenant mix — and thus the
// legitimate baseline — has changed, so relearning is the correct
// behaviour, not an implementation convenience). Configuration (Warmup,
// Sigma, Sustain) is preserved.
func (m *MultiResourceAnomaly) Reset() {
	m.n = 0
	m.mean = sim.Vector{}
	m.varAcc = sim.Vector{}
	m.anomalous = 0
	m.alarmed = false
	m.alarmedAt = 0
}

// HostUsage returns the aggregate per-resource demand on a server at time
// t — the signal a provider-side monitor samples. It is served from the
// server's per-tick demand snapshot (sim.Server.HostDemand), which folds
// the same clamped Vector.Add in placement order as the loop it replaced.
func HostUsage(s *sim.Server, t sim.Tick) sim.Vector {
	return s.HostDemand(t)
}

// Verdict summarises one detector's outcome against one attack run.
type Verdict struct {
	Detector string
	Alarmed  bool
	At       sim.Tick
}

// String renders the verdict for reports.
func (v Verdict) String() string {
	if !v.Alarmed {
		return fmt.Sprintf("%s: no alarm", v.Detector)
	}
	return fmt.Sprintf("%s: alarm at %.0fs", v.Detector, v.At.Seconds())
}
