package attack

import (
	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/latency"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
)

// The §5.3 confirmation probe: each sender is a 4-vCPU adversary (§3.4)
// bursting at burstIntensity percent, and a receiver-side latency ratio of
// confirmRatio confirms co-residency (the paper observes ~3×).
const (
	senderVCPUs    = 4
	burstIntensity = 90.0
	confirmRatio   = 2.0
)

// CoResidencyResult reports the attack outcome.
type CoResidencyResult struct {
	// Found reports whether the victim's host was confirmed.
	Found bool
	// Host is the confirmed server name.
	Host string
	// Candidates is how many sampled hosts carried a workload of the
	// target class (the m of §5.3).
	Candidates int
	// SendersUsed is the number of adversarial VMs launched.
	SendersUsed int
	// Ticks is the end-to-end attack duration.
	Ticks sim.Tick
	// LatencyRatio is the receiver-observed degradation on the confirmed
	// host (≈3× in the paper).
	LatencyRatio float64
	// PlacementProbability is the analytic P(f) for this launch.
	PlacementProbability float64
}

// CoResidency locates a specific victim service in a shared cluster: Bolt
// VMs land on random hosts, detect the type of their co-residents, prune
// to hosts carrying the target class, then confirm with a sender/receiver
// probe — the sender injects contention in the victim's sensitive
// resources while an external receiver watches the victim's request
// latency over a public channel.
type CoResidency struct {
	Detector *core.Detector
	Cluster  *cluster.Cluster
	RNG      *stats.RNG
	// Receiver measures the target service's latency (the external,
	// uncooperative-victim channel). It maps a host to the victim service
	// on it, or nil when the host does not run the victim.
	Receiver func(host *sim.Server) *latency.Service
}

// Run executes the attack and returns the outcome: senders adversarial VMs
// are launched simultaneously to find a victim of workload class
// targetClass (e.g. "mysql"). victimVMs is the k of the
// placement-probability formula (how many instances the victim user runs).
func (a *CoResidency) Run(senders int, targetClass string, victimVMs int, start sim.Tick) CoResidencyResult {
	res := CoResidencyResult{
		SendersUsed:          senders,
		PlacementProbability: PlacementProbability(len(a.Cluster.Servers), victimVMs, senders),
	}

	// Phase 1: simultaneous launch of sender VMs on random hosts.
	hosts := RandomHosts(a.RNG, len(a.Cluster.Servers), senders)
	type placed struct {
		adv  *probe.Adversary
		host *sim.Server
	}
	var launched []placed
	for i, h := range hosts {
		adv := probe.NewAdversary("coresidency-sender-"+string(rune('a'+i)), senderVCPUs,
			probe.Config{}, a.RNG.Split())
		if err := a.Cluster.Servers[h].Place(adv.VM); err != nil {
			continue // host full: this sender is wasted, as in a real launch
		}
		launched = append(launched, placed{adv, a.Cluster.Servers[h]})
	}
	defer func() {
		for _, s := range launched {
			s.host.Remove(s.adv.VM.ID)
		}
	}()

	t := start
	// Phase 2: each sender detects its co-residents; keep hosts carrying
	// the target class.
	var candidates []placed
	maxTicks := sim.Tick(0)
	for _, s := range launched {
		det := a.Detector.Detect(s.host, s.adv, t, 3)
		if det.Ticks > maxTicks {
			maxTicks = det.Ticks
		}
		// Prune generously: a host stays in the sample when the target
		// class appears among any co-resident's top matches. False
		// positives only cost one confirmation burst; a false negative
		// loses the victim.
		if detectionMentionsClass(det, targetClass) {
			candidates = append(candidates, s)
		}
	}
	t += maxTicks // senders run concurrently; the slowest gates the phase
	res.Candidates = len(candidates)

	// Phase 3: sender/receiver confirmation on each candidate host.
	const burstTicks = 2 * sim.TicksPerSecond
	for _, c := range candidates {
		svc := a.Receiver(c.host)
		if svc == nil {
			t += burstTicks
			continue
		}
		quiet := svc.Measure(c.host, t).MeanMs
		for _, r := range sim.FromSlice(a.victimProfile(targetClass)).TopK(2) {
			c.adv.Kernels.Set(r, burstIntensity)
		}
		loud := svc.Measure(c.host, t+burstTicks/2).MeanMs
		c.adv.Kernels.Reset()
		t += burstTicks
		if quiet > 0 && loud/quiet >= confirmRatio {
			res.Found = true
			res.Host = c.host.Name()
			res.LatencyRatio = loud / quiet
			break
		}
	}
	res.Ticks = t - start
	return res
}

// confirmDepth is how many of each co-resident's top matches the pruning
// reads. Detect returns only the first mining.MatchesKept, so it may not
// exceed that (TestConfirmDepthWithinMatchesKept).
const confirmDepth = 3

// detectionMentionsClass reports whether the target class appears among
// the top confirmDepth matches of any disentangled co-resident.
func detectionMentionsClass(det core.Detection, class string) bool {
	results := det.CoResidents
	if det.Result != nil {
		results = append(results, det.Result)
	}
	for _, r := range results {
		limit := confirmDepth
		if limit > len(r.Matches) {
			limit = len(r.Matches)
		}
		for _, m := range r.Matches[:limit] {
			if core.ClassMatches(m.Label, class) {
				return true
			}
		}
	}
	return false
}

// victimProfile returns a representative pressure profile for the target
// class from the detector's training set, used to pick which resources the
// confirmation burst stresses.
func (a *CoResidency) victimProfile(class string) []float64 {
	var acc []float64
	count := 0
	for _, m := range a.Detector.Rec.TrainingProfiles() {
		if m.Class != class {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(m.Pressure))
		}
		for j, v := range m.Pressure {
			acc[j] += v
		}
		count++
	}
	if count == 0 {
		return make([]float64, sim.NumResources)
	}
	for j := range acc {
		acc[j] /= float64(count)
	}
	return acc
}
