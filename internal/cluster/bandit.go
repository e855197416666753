package cluster

import (
	"math"

	"bolt/internal/sim"
	"bolt/internal/stats"
)

// BanditMode selects the exploration strategy of the Bandit allocator.
type BanditMode int

const (
	// EpsilonGreedy explores a uniformly random feasible host with
	// probability Epsilon and otherwise exploits the lowest-leak host.
	EpsilonGreedy BanditMode = iota
	// UCB exploits a lower-confidence bound: hosts with few observations
	// get an optimism bonus, so under-sampled placements are tried without
	// any random draw at all.
	UCB
)

// Bandit is a multi-armed-bandit secure allocator (per the MAB VM
// allocation policy literature the ROADMAP cites): each server is an arm,
// and the reward signal is the leaked-signature mass the provider's own
// detection plane measures on that server — the very observable a
// co-residency attacker probes for. The allocator learns which hosts leak
// and steers new placements away from them, so a tenant that lights a host
// up on the detection plane (a heavily loaded victim — or an attacker
// running probe kernels) stops receiving new neighbours.
//
// Rewards arrive out of band: the defender calls Observe(server, leak)
// after each monitoring window with leak in [0, 1]. Pick minimises
// expected leak; Observe never examines who leaked, which keeps the policy
// honest — it needs no oracle knowledge of who is a victim.
//
// Determinism: the only randomness is the epsilon-greedy exploration draw,
// taken from the pre-split stats.RNG stream handed to NewBandit (the PR 6
// splitting discipline), and Pick runs on the caller's goroutine between
// fleet ticks — so placement decisions are byte-identical at every
// -epworkers and -shardworkers level.
type Bandit struct {
	// Mode selects epsilon-greedy or UCB arm selection.
	Mode BanditMode
	// Epsilon is the exploration probability for EpsilonGreedy; 0 means 0.1.
	Epsilon float64
	// Explore is the UCB optimism coefficient; 0 means 0.5 (leak rewards
	// are normalised to [0, 1], so 0.5 makes an unvisited arm beat any arm
	// with observed mean leak below ~0.5·√ln N).
	Explore float64

	rng   *stats.RNG
	n     []float64 // observations per server
	sum   []float64 // summed leak per server
	total float64   // total observations
}

// NewBandit builds the allocator over its own pre-split RNG stream. State
// (leak estimates) accumulates across placements; use a fresh Bandit per
// experiment run.
func NewBandit(mode BanditMode, rng *stats.RNG) *Bandit {
	return &Bandit{Mode: mode, rng: rng}
}

// Name implements Scheduler.
func (b *Bandit) Name() string {
	if b.Mode == UCB {
		return "bandit-ucb"
	}
	return "bandit-eps"
}

// grow sizes the per-arm tables to the fleet.
func (b *Bandit) grow(n int) {
	for len(b.n) < n {
		b.n = append(b.n, 0)
		b.sum = append(b.sum, 0)
	}
}

// Observe feeds one reward sample for a server: the leaked-signature mass
// the detection plane measured there over the last window, normalised to
// [0, 1]. Out-of-range samples are clamped; unknown server indexes are
// ignored.
func (b *Bandit) Observe(server int, leak float64) {
	if server < 0 {
		return
	}
	b.grow(server + 1)
	if leak < 0 {
		leak = 0
	}
	if leak > 1 {
		leak = 1
	}
	b.n[server]++
	b.sum[server] += leak
	b.total++
}

// score is the quantity Pick minimises for one arm.
func (b *Bandit) score(i int) float64 {
	if i >= len(b.n) || b.n[i] == 0 {
		if b.Mode == UCB {
			// Unvisited arms get maximal optimism (lowest possible bound).
			return -math.MaxFloat64
		}
		return 0
	}
	mean := b.sum[i] / b.n[i]
	if b.Mode == UCB {
		c := b.Explore
		if c == 0 {
			c = 0.5
		}
		return mean - c*math.Sqrt(math.Log(b.total+1)/b.n[i])
	}
	return mean
}

// Pick implements Scheduler: among feasible hosts it minimises the leak
// score, breaking ties by most free vCPUs then lowest index (so a cold
// bandit behaves like LeastLoaded). EpsilonGreedy first draws one uniform
// variate: with probability Epsilon the placement explores a uniformly
// random feasible host instead.
func (b *Bandit) Pick(servers []*sim.Server, vm *sim.VM, _ sim.Tick) int {
	b.grow(len(servers))
	feasible := make([]int, 0, len(servers))
	for i, s := range servers {
		if s.FreeVCPUs() >= vm.VCPUs {
			feasible = append(feasible, i)
		}
	}
	if len(feasible) == 0 {
		return -1
	}
	if b.Mode == EpsilonGreedy {
		eps := b.Epsilon
		if eps == 0 {
			eps = 0.1
		}
		if b.rng.Float64() < eps {
			return feasible[b.rng.Intn(len(feasible))]
		}
	}
	best := feasible[0]
	bestScore, bestFree := b.score(best), servers[best].FreeVCPUs()
	for _, i := range feasible[1:] {
		sc, free := b.score(i), servers[i].FreeVCPUs()
		if sc < bestScore || (sc == bestScore && free > bestFree) {
			best, bestScore, bestFree = i, sc, free
		}
	}
	return best
}
