package attack

import (
	"bolt/internal/latency"
	"bolt/internal/probe"
	"bolt/internal/sim"
)

// RFA is a resource-freeing attack (§5.2): the helper saturates the
// victim's dominant resource so the victim stalls and stops pressuring
// everything else, and the beneficiary — whose critical resource must not
// overlap the victim's — reclaims the freed capacity.
type RFA struct {
	// Helper is the adversary VM running the saturating kernel.
	Helper *probe.Adversary
	// Target is the resource the helper saturates (the victim's dominant
	// resource, obtained from Bolt's detection).
	Target sim.Resource
}

// rfaIntensity is the helper's kernel intensity in percent.
const rfaIntensity = 95

// Start turns the helper on.
func (r *RFA) Start() {
	r.Helper.Kernels.Reset()
	r.Helper.Kernels.Set(r.Target, rfaIntensity)
}

// Stop turns the helper off.
func (r *RFA) Stop() { r.Helper.Kernels.Reset() }

// RFAOutcome quantifies one resource-freeing attack run.
type RFAOutcome struct {
	Target sim.Resource
	// VictimDegradation is the victim's relative performance loss in
	// percent (QPS for services, execution time for batch jobs).
	VictimDegradation float64
	// BeneficiaryImprovement is the beneficiary's execution-time gain in
	// percent.
	BeneficiaryImprovement float64
	// VictimMetric names what VictimDegradation measures.
	VictimMetric string
}

// MeasureBatchRFA runs the attack against a batch victim: both victim and
// beneficiary are measured by execution time, with the helper off and on.
//
// Both measurements happen at the same tick with only the helper kernels
// toggled in between — the case that requires the helper's probe.Kernels
// to implement sim.RetunableDemander: the host's per-tick demand snapshot
// sees the helper's demand move and refills, so the on-measurement sees
// the helper's pressure instead of the cached off-state.
func MeasureBatchRFA(r *RFA, host *sim.Server, victim, beneficiary *latency.BatchJob,
	start sim.Tick) RFAOutcome {
	r.Stop()
	baseVictim, _ := victim.Run(host, start, 0)
	baseBen, _ := beneficiary.Run(host, start, 0)

	r.Start()
	atkVictim, _ := victim.Run(host, start, 0)
	atkBen, _ := beneficiary.Run(host, start, 0)
	r.Stop()

	return RFAOutcome{
		Target: r.Target,
		// For execution time a positive degradation means the victim got
		// slower.
		VictimDegradation:      pctLoss(float64(atkVictim), float64(baseVictim)),
		BeneficiaryImprovement: pctLoss(float64(baseBen), float64(atkBen)),
		VictimMetric:           "exec time",
	}
}

// pctLoss returns how much smaller b is than a, in percent of a.
func pctLoss(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (a - b) / a
}
