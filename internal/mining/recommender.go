package mining

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// LabeledProfile is one previously seen workload in the training set: its
// human-readable label (e.g. "hadoop:svm:L"), the coarse class it belongs to
// (e.g. "hadoop"), and its dense resource-pressure vector in [0,100].
type LabeledProfile struct {
	Label    string
	Class    string
	Pressure []float64
}

// Match is one entry of the similarity ranking the recommender emits.
type Match struct {
	Label      string
	Class      string
	Similarity float64 // weighted Pearson in [-1, 1]
}

// MatchesKept is how many entries of the similarity ranking Detect returns.
// Every reader reads a short prefix: Result.Best and Result.Confident read
// entry 0, the co-residency attack's pruning the top 3
// (attack.ConfirmDepth), boltctl prints the top 5; the wire carries only
// Best.
const MatchesKept = 8

// Result is the output of one detection: a dense reconstruction of the
// victim's resource pressure plus the head of the similarity ranking over
// the training set.
type Result struct {
	Pressure []float64 // completed pressure vector, one entry per resource
	// Matches is the first min(MatchesKept, training profiles) entries of
	// the ranking by decreasing similarity, ties in training order; a NaN
	// similarity ranks below every number.
	Matches []Match
}

// Best returns the top match, or a zero Match if the distribution is empty.
func (r *Result) Best() Match {
	if len(r.Matches) == 0 {
		return Match{}
	}
	return r.Matches[0]
}

// Confident reports whether any match clears the paper's 0.1 correlation
// floor; below it Bolt treats the signal as unseen-or-mixed (§3.3).
func (r *Result) Confident() bool {
	return len(r.Matches) > 0 && r.Matches[0].Similarity >= ConfidenceFloor
}

// ConfidenceFloor is the minimum Pearson coefficient at which Bolt trusts a
// match (all coefficients below 0.1 trigger re-profiling per §3.3).
const ConfidenceFloor = 0.1

// RecommenderConfig tunes the hybrid recommender.
type RecommenderConfig struct {
	EnergyFraction float64 // singular-value energy to retain; 0 means DefaultEnergyFraction
	Completion     CompletionConfig
	// Unweighted switches Eq. 1 to the classic Pearson coefficient
	// (ablation: the paper argues weighting by similarity-concept strength
	// preserves which resources matter for each workload).
	Unweighted bool
	// PureCF disables the content-based stage and ranks by latent-factor
	// cosine similarity alone (ablation: CF cannot label victims).
	PureCF bool
}

// DefaultEnergyFraction is the singular-value energy a recommender retains
// when its config leaves EnergyFraction 0.
const DefaultEnergyFraction = 0.9

// Recommender is Bolt's hybrid recommender (§3.2): SVD over the
// (column-centred) training matrix identifies similarity concepts; SGD
// PQ-completion recovers the victim's unprofiled resources; weighted Pearson
// correlation in concept space ranks previously seen workloads by
// similarity. Centring makes the similarity concepts capture variation
// across workloads rather than the grand mean, which would otherwise absorb
// nearly all singular-value energy and collapse the concept space to rank 1.
//
// A Recommender is a view of a Base: the factorisations come from the base,
// shared with every other view of it, and only what RecommenderConfig
// selects is the view's own. No field is written after View returns; all
// per-call state, the per-mask plans included, lives in the pooled scratch.
type Recommender struct {
	cfg      RecommenderConfig
	profiles []LabeledProfile // the base's
	svd      *SVD             // the base's SVD truncated to the energy rank
	means    []float64        // the base's column means
	weights  []float64        // per-resource Eq. 1 weights: Σₖ σₖ·|V[j][k]|
	complete *Completer       // the base's factors, with the view's FixedFoldIn
	concepts [][]float64      // per-training-app concept-space coordinates
	centred  []float64        // the base's centred training rows
	n        int              // resource count
	scratch  sync.Pool        // *detectScratch
	base     *Base
}

// Base is the half of a trained recommender that depends only on the
// training profiles and the completion's Rank and Seed: the column means,
// the centred training rows, the full SVD of the centred matrix and the
// Completer's SGD factorisation. Those are all the training there is, so a
// catalog is factorised once however many configs read it, as §3.2 trains
// Bolt once. The factorisation never changes after NewBase returns; the
// only state a Base adds to later is View's memo, under its mutex, so a
// Base is safe for concurrent use.
type Base struct {
	profiles []LabeledProfile
	n        int
	means    []float64 // per-resource column means of the training matrix
	// centred holds the mean-centred training profiles, row-major with
	// stride n: row i is profiles[i].Pressure - means, built once here
	// rather than on every detection.
	centred  []float64
	full     *SVD       // of the centred training matrix, every concept
	complete *Completer // the factorisation, FixedFoldIn off

	mu    sync.Mutex
	views map[RecommenderConfig]*Recommender // View's, by resolved config
}

// planSlots is how many known masks a pooled scratch keeps plans for. A
// served detector sees a handful of masks (boltload sends four); a plan is
// ~5 KB at rank 6 over 120 profiles, so a scratch holds under ~42 KB of
// plans whatever the traffic.
const planSlots = 8

// maskPlan is everything Detect computes that depends on which resources
// are known and not on their observed values: the fold-in plan (known
// indices and power chain) and, unless PureCF, Eq. 1 under the mask — the
// weights, with measured resources boosted (all ones under Unweighted),
// which weigh the proximity factor too; their sum; and each training
// profile's weighted mean and variance.
type maskPlan struct {
	known    []bool
	fold     foldPlan
	sigma    []float64
	den      float64
	profiles []moments
}

// detectScratch is the per-call working memory of one detection, pooled on
// the Recommender so concurrent Detect calls (the parallel experiment
// runner) each grab their own and steady-state detection performs no heap
// allocation beyond the returned Result.
type detectScratch struct {
	complete completeScratch
	dense    []float64 // completed observation (n)
	centred  []float64 // mean-centred observation (n)
	x        []float64 // projection input (n; PureCF)
	u        []float64 // concept-space coordinates (rank; PureCF)
	top      []rankKey // the ranking's head, min(MatchesKept, profiles) slots
	q        moments   // the prepared query's half of Eq. 1
	// plans holds the plans of the last planSlots masks this scratch
	// served, oldest at next once all are built.
	plans []*maskPlan
	next  int
}

// rankKey is what Detect ranks: a profile's similarity and its index in the
// training set. It holds no pointer, so moving keys is a plain memmove —
// moving the two-string Match structs themselves paid a write barrier per
// moved element whenever the GC was marking.
type rankKey struct {
	sim float64
	idx int32
}

// minConceptRank is the fewest similarity concepts the recommender retains.
// Pearson correlation over very few coordinates is degenerate (with two it
// is always ±1, and it stays poorly conditioned below about five), so the
// 90%-energy rule is floored here. The σ weights already suppress weak
// concepts, so retaining a few extra acts as a soft truncation.
const minConceptRank = 5

// NewRecommender trains the recommender on the given profiles: NewBase,
// then View. All profiles must share the same pressure-vector length. It
// panics on an empty or ragged training set, since a recommender without
// training data is a programming error rather than a runtime condition.
func NewRecommender(profiles []LabeledProfile, cfg RecommenderConfig) *Recommender {
	return NewBase(profiles, cfg.Completion).View(cfg)
}

// NewBase factorises the training profiles under the completion's Rank and
// Seed; its FixedFoldIn is left to each View. It panics as NewRecommender
// does.
func NewBase(profiles []LabeledProfile, c CompletionConfig) *Base {
	if len(profiles) == 0 {
		panic("mining: empty training set")
	}
	n := len(profiles[0].Pressure)
	rows := make([][]float64, len(profiles))
	for i, p := range profiles {
		if len(p.Pressure) != n {
			panic(fmt.Sprintf("mining: profile %q has %d resources, want %d",
				p.Label, len(p.Pressure), n))
		}
		rows[i] = p.Pressure
	}

	train := FromRows(rows)
	means := make([]float64, n)
	for j := 0; j < n; j++ {
		sum := 0.0
		for i := 0; i < train.Rows; i++ {
			sum += train.At(i, j)
		}
		means[j] = sum / float64(train.Rows)
	}
	centred := train.Clone()
	for i := 0; i < centred.Rows; i++ {
		for j := 0; j < n; j++ {
			centred.Set(i, j, centred.At(i, j)-means[j])
		}
	}
	c.FixedFoldIn = false
	return &Base{
		profiles: append([]LabeledProfile(nil), profiles...),
		n:        n,
		means:    means,
		centred:  centred.Data,
		full:     ComputeSVD(centred),
		complete: NewCompleter(train, c),
		views:    make(map[RecommenderConfig]*Recommender),
	}
}

// View returns the recommender cfg selects on b: the SVD truncated by
// EnergyFraction, the σ weights and concept coordinates it implies, the
// PureCF and Unweighted stages, and FixedFoldIn. Configs that resolve
// alike (an EnergyFraction of 0 is DefaultEnergyFraction, the completion
// takes CompletionConfig.WithDefaults) get the same *Recommender, which
// nothing writes once it is built. cfg.Completion's
// Rank and Seed must resolve to b's; View panics otherwise.
func (b *Base) View(cfg RecommenderConfig) *Recommender {
	cfg.Completion = cfg.Completion.WithDefaults(b.n)
	if c, bc := cfg.Completion, b.complete.cfg; c.Rank != bc.Rank || c.Seed != bc.Seed {
		panic(fmt.Sprintf("mining: view with completion rank %d seed %d of a base with rank %d seed %d",
			c.Rank, c.Seed, bc.Rank, bc.Seed))
	}
	if cfg.EnergyFraction == 0 {
		cfg.EnergyFraction = DefaultEnergyFraction
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.views[cfg]
	if !ok {
		r = b.newView(cfg)
		b.views[cfg] = r
	}
	return r
}

// newView builds the view of b for the resolved config cfg.
func (b *Base) newView(cfg RecommenderConfig) *Recommender {
	rank := b.full.EnergyRank(cfg.EnergyFraction)
	if rank < minConceptRank {
		rank = minConceptRank
	}
	n := b.n
	r := &Recommender{
		cfg:      cfg,
		profiles: b.profiles,
		svd:      b.full.Truncate(rank),
		means:    b.means,
		complete: b.complete,
		centred:  b.centred,
		n:        n,
		base:     b,
	}
	if cfg.Completion.FixedFoldIn {
		c := *b.complete
		c.cfg.FixedFoldIn = true
		r.complete = &c
	}
	r.concepts = make([][]float64, len(r.profiles))
	for i := range r.concepts {
		r.concepts[i] = r.svd.Project(r.centred[i*n : (i+1)*n])
	}
	r.weights = make([]float64, n)
	for j := 0; j < n; j++ {
		for k, s := range r.svd.Sigma {
			r.weights[j] += s * math.Abs(r.svd.V.At(j, k))
		}
		// Never let a weight hit zero: an uninformative resource still
		// participates slightly, keeping the covariance well defined.
		if r.weights[j] < 1e-9 {
			r.weights[j] = 1e-9
		}
	}
	conceptRank := len(r.svd.Sigma)
	r.scratch.New = func() any {
		return &detectScratch{
			complete: newCompleteScratch(r.complete.cfg.Rank, n),
			dense:    make([]float64, n),
			centred:  make([]float64, n),
			x:        make([]float64, n),
			u:        make([]float64, conceptRank),
			top:      make([]rankKey, min(MatchesKept, len(r.profiles))),
			plans:    make([]*maskPlan, 0, planSlots),
		}
	}
	return r
}

// Base returns the base r is a view of, shared with every other view of
// it.
func (r *Recommender) Base() *Base { return r.base }

// newPlan allocates an empty plan sized for r.
//
//bolt:nolint hotalloc -- planFor allocates at most planSlots plans per pooled scratch, then overwrites the oldest; TestDetectAllocationBudget pins the steady state at 3 allocs on hits and on misses
func (r *Recommender) newPlan() *maskPlan {
	p := &maskPlan{known: make([]bool, r.n), fold: foldPlan{kidx: make([]int, 0, r.n)}}
	if c := r.complete.cfg; !c.FixedFoldIn {
		p.fold.chain = make([]float64, foldDoublings*c.Rank*c.Rank)
	}
	if !r.cfg.PureCF {
		p.sigma = make([]float64, r.n)
		p.profiles = make([]moments, len(r.profiles))
	}
	return p
}

// buildPlan fills p for the known mask. Every number is computed by the
// operations, in the order, that a per-call computation would use, so a
// plan read later gives the bits recomputing it would.
//
//bolt:hotpath
func (r *Recommender) buildPlan(p *maskPlan, known []bool, tmp []float64) {
	copy(p.known, known)
	r.complete.planFold(&p.fold, known, tmp)
	if r.cfg.PureCF {
		return
	}
	for j := range p.sigma {
		switch {
		case r.cfg.Unweighted:
			p.sigma[j] = 1
		case known[j]:
			p.sigma[j] = r.weights[j] * measuredBoost
		default:
			p.sigma[j] = r.weights[j]
		}
	}
	den := 0.0
	for _, w := range p.sigma {
		den += w
	}
	p.den = den
	for i := range p.profiles {
		p.profiles[i] = momentsOf(r.centred[i*r.n:(i+1)*r.n], p.sigma, den)
	}
}

// planFor returns the plan for known from s: the one s holds, or one built
// here into s's next slot — a new plan while s holds fewer than planSlots,
// else its oldest, overwritten.
//
//bolt:hotpath
func (r *Recommender) planFor(s *detectScratch, known []bool) *maskPlan {
	for _, p := range s.plans {
		if slices.Equal(p.known, known) {
			return p
		}
	}
	var p *maskPlan
	if len(s.plans) < planSlots {
		p = r.newPlan()
		s.plans = append(s.plans, p)
	} else {
		p = s.plans[s.next]
		s.next = (s.next + 1) % planSlots
	}
	r.buildPlan(p, known, s.complete.tmp)
	return p
}

// ResourceCount returns the length of pressure vectors this recommender
// expects.
func (r *Recommender) ResourceCount() int { return r.n }

// TrainingProfiles returns the training set the recommender was built on
// (shared slice contents; treat as read-only).
func (r *Recommender) TrainingProfiles() []LabeledProfile { return r.profiles }

// Rank returns the number of similarity concepts retained after the
// energy-based truncation.
func (r *Recommender) Rank() int { return len(r.svd.Sigma) }

// Sigma returns a copy of the retained singular values (similarity-concept
// strengths, decreasing).
func (r *Recommender) Sigma() []float64 {
	return append([]float64(nil), r.svd.Sigma...)
}

// ObservedWeightMass returns the fraction of the total per-resource Eq. 1
// weight (σₖ·|V[j][k]| summed over retained concepts) carried by the
// resources marked known — how much of the similarity stage's
// discriminative mass an observation actually covers. It is 1 for a fully
// observed vector and 0 for an empty mask, and feeds the detector's
// graceful-degradation confidence score.
func (r *Recommender) ObservedWeightMass(known []bool) float64 {
	if len(known) != r.n {
		panic("mining: ObservedWeightMass mask length mismatch")
	}
	num, den := 0.0, 0.0
	for j, w := range r.weights {
		den += w
		if known[j] {
			num += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ResourceValue returns a per-resource "information value" score: the Eq. 1
// weight σₖ·|V[j][k]| summed over retained concepts (floored at 1e-9),
// normalised to max 1. Resources with high scores are the ones whose
// isolation the paper says should be prioritised.
func (r *Recommender) ResourceValue() []float64 {
	maxv := slices.Max(r.weights)
	val := make([]float64, r.n)
	for j, w := range r.weights {
		val[j] = w / maxv
	}
	return val
}

// measuredBoost is the weight multiplier a directly profiled resource gets
// over an inferred one in the similarity computation.
const measuredBoost = 4.0

// proximityScale sets how quickly the proximity factor decays with the
// weighted RMS pressure distance between two profiles (in pressure
// percentage points).
const proximityScale = 25.0

// proximity returns exp(-wrmse/proximityScale) for the weighted RMS
// distance between two profiles under weights summing to den.
//
//bolt:hotpath
func proximity(a, b, weights []float64, den float64) float64 {
	num := 0.0
	for j := range a {
		d := a[j] - b[j]
		num += weights[j] * d * d
	}
	if den == 0 {
		return 1
	}
	return math.Exp(-math.Sqrt(num/den) / proximityScale)
}

// Detect runs the full pipeline on a sparse profiling observation:
// completion of the missing resources, then similarity ranking against
// every training profile, of which the top MatchesKept are returned.
// Directly measured resources (known[j]) carry more weight in the match
// than completed (inferred) ones, since the latter inherit the training
// set's biases; a fully observed vector takes an all-true mask. Working
// buffers come from the scratch pool; only the returned Result is
// allocated.
//
// The content-based stage applies Eq. 1's weighted Pearson correlation to
// the resource-space profiles, with per-resource weights derived from the
// retained similarity concepts (σₖ·|V[j][k]| summed over concepts): the
// resources that participate in strong similarity concepts count more, so
// the application-specific information about which resources matter is
// preserved — the paper's stated reason for rejecting the traditional
// unweighted coefficient.
//
// A query's known mask selects a plan (planFor) holding everything above
// that depends on the mask alone; the rest is computed per call.
//
//bolt:hotpath
func (r *Recommender) Detect(observed []float64, known []bool) *Result {
	s := r.scratch.Get().(*detectScratch)
	defer r.scratch.Put(s)
	return r.detect(s, observed, known)
}

// detect is Detect on the working memory s.
//
//bolt:hotpath
func (r *Recommender) detect(s *detectScratch, observed []float64, known []bool) *Result {
	p := r.prepare(s, observed, known)
	// The content-based stage also exploits the contextual information the
	// correlation discards — how close the two profiles are in absolute
	// pressure. Two workloads with proportionally similar shapes but very
	// different intensities are not the same application; the proximity
	// factor (in [0, 1]) suppresses such matches while leaving near-copies
	// untouched.
	top, c := s.top, 0
	for i := range r.profiles {
		var sim float64
		if r.cfg.PureCF {
			sim = CosineSimilarity(s.u, r.concepts[i])
		} else {
			sim = pearsonFrom(s.centred, r.centred[i*r.n:(i+1)*r.n], p.sigma, p.den, s.q, p.profiles[i])
			// Once the head is full, a profile whose Pearson value bounds its
			// similarity at or below the last kept one cannot enter it, so it
			// skips the proximity exp. For sim ≥ 0, sim·prox ≤ sim; for
			// sim < 0, sim·prox ≤ 0, and a −0 product equals 0. Neither
			// strictly beats a threshold ≥ both, and a NaN product beats no
			// number. A NaN threshold fails the test, so nothing is skipped
			// against it.
			if c == len(top) && sim <= top[c-1].sim && top[c-1].sim >= 0 {
				continue
			}
			sim *= proximity(s.dense, r.profiles[i].Pressure, p.sigma, p.den)
		}
		c = insertRanked(top, c, rankKey{sim: sim, idx: int32(i)})
	}
	res := &Result{ //bolt:nolint hotalloc -- the escaping Result is the documented output; TestDetectAllocationBudget pins Detect at exactly these 3 allocs
		Pressure: append([]float64(nil), s.dense...), //bolt:nolint hotalloc -- alloc 2 of 3 in the pinned budget: the caller keeps Pressure after scratch is recycled
		Matches:  make([]Match, c),                   //bolt:nolint hotalloc -- alloc 3 of 3 in the pinned budget: the caller keeps the ranking's head, at most MatchesKept entries, after scratch is recycled
	}
	for k, key := range top[:c] {
		prof := &r.profiles[key.idx]
		res.Matches[k] = Match{Label: prof.Label, Class: prof.Class, Similarity: key.sim}
		if r.cfg.PureCF {
			// Pure collaborative filtering cannot assign labels (§3.2): it
			// only clusters. Blank the label so downstream accuracy metrics
			// reflect the paper's argument that CF alone is insufficient.
			res.Matches[k].Label = ""
		}
	}
	return res
}

// prepare completes the observation into s.dense and readies s for scoring
// it: under PureCF its concept-space coordinates, otherwise its centred copy
// and its half of Eq. 1. It returns the plan for known.
//
//bolt:hotpath
func (r *Recommender) prepare(s *detectScratch, observed []float64, known []bool) *maskPlan {
	if len(observed) != r.n || len(known) != r.n {
		panic("mining: Detect length mismatch")
	}
	p := r.planFor(s, known)
	pressure := s.dense
	r.complete.completeInto(pressure, observed, known, &p.fold, &s.complete)
	if r.cfg.PureCF {
		copy(s.x, pressure)
		for j := range s.x {
			s.x[j] -= r.means[j]
		}
		r.svd.ProjectInto(s.u, s.x)
		return p
	}
	// Centre by the training column means so that magnitude differences
	// become pattern differences: Pearson alone is scale-invariant and
	// cannot tell two profiles of the same shape at different intensities
	// apart, but "above-average LLC" vs "below-average LLC" anti-correlate
	// once centred — the same effect Eq. 1 gets from correlating in the
	// concept space of the centred SVD.
	for j := range s.centred {
		s.centred[j] = pressure[j] - r.means[j]
	}
	s.q = momentsOf(s.centred, p.sigma, p.den)
	return p
}

// ranksAbove reports whether similarity a ranks strictly ahead of b: it is
// larger, or b is NaN and a is not. A NaN similarity ranks below every
// number, so one NaN observation cannot float a profile to the top.
func ranksAbove(a, b float64) bool { return a > b || (b != b && a == a) }

// insertRanked offers key to the ranking head top, whose first c slots hold
// the best keys so far in rank order, and returns the new fill. Keys arrive
// in training order, so a key goes after every kept key it does not rank
// above, and ties stay in training order; a full head drops its last entry
// to make room, or drops key if it ranks above none. (similarity, index)
// is a total order on numbers, so the head is exactly the first len(top)
// entries of the stable full sort.
//
//bolt:hotpath
func insertRanked(top []rankKey, c int, key rankKey) int {
	if c == len(top) {
		if !ranksAbove(key.sim, top[c-1].sim) {
			return c
		}
		c--
	}
	lo, hi := 0, c
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ranksAbove(key.sim, top[mid].sim) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	copy(top[lo+1:c+1], top[lo:c])
	top[lo] = key
	return c + 1
}

// LabelSimilarity scores the observation against the training profiles
// labelled label and returns, in Detect's ranking order, the first nonzero
// similarity among them; if all are zero, the last one's zero; if none
// carries the label, 0. That is what scanning the whole ranking for the
// label reads. Pure CF blanks every label (§3.2), so under PureCF it is 0.
func (r *Recommender) LabelSimilarity(observed []float64, known []bool, label string) float64 {
	s := r.scratch.Get().(*detectScratch)
	defer r.scratch.Put(s)
	return r.labelSimilarity(s, observed, known, label)
}

// labelSimilarity is LabelSimilarity on the working memory s.
func (r *Recommender) labelSimilarity(s *detectScratch, observed []float64, known []bool, label string) float64 {
	if r.cfg.PureCF {
		return 0
	}
	p := r.prepare(s, observed, known)
	best, found := 0.0, false
	for i := range r.profiles {
		if r.profiles[i].Label != label {
			continue
		}
		sim := pearsonFrom(s.centred, r.centred[i*r.n:(i+1)*r.n], p.sigma, p.den, s.q, p.profiles[i]) *
			proximity(s.dense, r.profiles[i].Pressure, p.sigma, p.den)
		switch {
		case sim == 0:
			if !found {
				best = sim
			}
		case !found || ranksAbove(sim, best):
			best, found = sim, true
		}
	}
	return best
}
