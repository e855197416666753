// Package latency models the request latency of interactive services
// (key-value stores, webservers, databases) running on the simulated
// hosts. It is the measurement substrate for the paper's performance
// attacks: the DoS experiment of §5.1 reports 99th-percentile latency
// inflation of 8-140×, and the RFA of §5.2 reports queries-per-second
// losses.
//
// The model is M/M/1-derived: interference on the victim's critical
// resources inflates its service time (via sim.Server.Slowdown), which both
// raises the zero-queue latency and pushes the server's utilisation toward
// saturation, where queueing delay explodes — the dynamic that lets a
// carefully targeted, low-CPU attack blow up tail latency while a naïve
// CPU-saturating attack trips the migration defence first.
package latency

import (
	"math"

	"bolt/internal/sim"
	"bolt/internal/workload"
)

// Service is an interactive application whose latency is being observed.
type Service struct {
	// VM is the victim's placement; the host it sits on supplies the
	// interference.
	VM *sim.VM
	// Pattern is the offered-load curve (fraction of peak QPS).
	Pattern workload.LoadPattern
	// BaseServiceMs is the per-request service time in isolation at zero
	// queueing. 0 means 0.5 ms (a memcached-class request).
	BaseServiceMs float64
	// PeakRho is the server utilisation at full offered load in isolation.
	// 0 means 0.65.
	PeakRho float64
	// PeakQPS is the offered load at pattern factor 1. 0 means 100k.
	PeakQPS float64
}

func (svc *Service) defaults() (base, peakRho, peakQPS float64) {
	base, peakRho, peakQPS = svc.BaseServiceMs, svc.PeakRho, svc.PeakQPS
	if base == 0 {
		base = 0.5
	}
	if peakRho == 0 {
		peakRho = 0.65
	}
	if peakQPS == 0 {
		peakQPS = 100_000
	}
	return base, peakRho, peakQPS
}

// maxQueueBlowup bounds the queueing-delay multiplier at saturation, since
// a real service sheds or times out rather than queueing unboundedly. Its
// value puts the worst-case p99 inflation for a fully saturated victim in
// the paper's observed 140x range.
const maxQueueBlowup = 120

// p99Factor converts mean sojourn time to the 99th percentile for an
// exponential sojourn distribution: −ln(0.01) ≈ 4.6.
var p99Factor = -math.Log(0.01)

// Sample is one latency/throughput observation.
type Sample struct {
	MeanMs      float64
	P99Ms       float64
	QPS         float64
	Utilization float64 // the service's internal utilisation ρ
}

// Measure returns the service's latency and throughput at time t given the
// interference present on its host. The slowdown query rides the host's
// per-tick demand snapshot, so repeated same-tick measurements (the DoS
// timeline samples latency and CPU utilisation at the same instant) cost
// one demand evaluation per co-resident rather than one per query.
func (svc *Service) Measure(host *sim.Server, t sim.Tick) Sample {
	base, peakRho, peakQPS := svc.defaults()
	slow := host.Slowdown(svc.VM, t)
	load := 1.0
	if svc.Pattern != nil {
		load = svc.Pattern.Factor(t)
	}

	serviceMs := base * slow
	rho := peakRho * load * slow
	offered := peakQPS * load

	var meanMs, qps float64
	if rho < 1 {
		meanMs = serviceMs / (1 - rho)
		if meanMs > serviceMs*maxQueueBlowup {
			meanMs = serviceMs * maxQueueBlowup
		}
		qps = offered
	} else {
		// Saturated: the service serves at capacity and queues explode to
		// the shedding bound.
		meanMs = serviceMs * maxQueueBlowup
		qps = offered / rho
	}
	return Sample{
		MeanMs:      meanMs,
		P99Ms:       meanMs * p99Factor,
		QPS:         qps,
		Utilization: rho,
	}
}

// Baseline returns the sample the service would see on an otherwise empty
// host at the same load — the reference point for degradation factors.
func (svc *Service) Baseline(t sim.Tick) Sample {
	base, peakRho, peakQPS := svc.defaults()
	load := 1.0
	if svc.Pattern != nil {
		load = svc.Pattern.Factor(t)
	}
	rho := peakRho * load
	meanMs := base / (1 - rho)
	return Sample{
		MeanMs:      meanMs,
		P99Ms:       meanMs * p99Factor,
		QPS:         peakQPS * load,
		Utilization: rho,
	}
}

// DegradationFactor returns how many times worse the observed p99 latency
// is than the isolated baseline at the same instant.
func (svc *Service) DegradationFactor(host *sim.Server, t sim.Tick) float64 {
	obs := svc.Measure(host, t)
	ref := svc.Baseline(t)
	if ref.P99Ms == 0 {
		return 1
	}
	return obs.P99Ms / ref.P99Ms
}

// BatchJob models the execution-time impact of interference on a batch
// application: the job needs Work abstract units; each tick contributes
// 1/slowdown units. Run returns how many ticks the job took and the
// slowdown factor relative to an interference-free run.
type BatchJob struct {
	VM   *sim.VM
	Work float64 // ticks of work at slowdown 1
}

// Run executes the job to completion on the host starting at the given
// tick, up to maxTicks (0 means 100× the isolated duration).
func (b *BatchJob) Run(host *sim.Server, start sim.Tick, maxTicks sim.Tick) (sim.Tick, float64) {
	if b.Work <= 0 {
		return 0, 1
	}
	if maxTicks == 0 {
		maxTicks = sim.Tick(b.Work * 100)
	}
	done := 0.0
	var used sim.Tick
	for done < b.Work && used < maxTicks {
		slow := host.Slowdown(b.VM, start+used)
		done += 1 / slow
		used++
	}
	return used, float64(used) / b.Work
}
