package core

import (
	"math"

	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
)

// signal is one accumulated observation stream: running-mean values plus a
// known mask. Repeated measurements of the same resource are averaged, so
// each extra iteration reduces the measurement variance instead of just
// replacing one noisy reading with another.
type signal struct {
	obs    sim.Vector
	known  [sim.NumResources]bool
	counts [sim.NumResources]int
}

// fold averages a new measurement into the stream.
func (g *signal) fold(r sim.Resource, v float64) {
	n := float64(g.counts[r])
	g.obs.Set(r, (g.obs.Get(r)*n+v)/(n+1))
	g.counts[r]++
	g.known[r] = true
}

// knownCount returns how many resources carry a measurement.
func (g *signal) knownCount() int {
	n := 0
	for _, k := range g.known {
		if k {
			n++
		}
	}
	return n
}

// Episode is an in-progress detection against one host. It keeps the two
// §3.3 signals separate:
//
//   - the core signal comes only from the hyperthread sibling of the
//     adversary's cores — it belongs to (at most) a single co-resident and
//     is the most reliable handle on a mixture;
//   - the uncore signal is the host-wide mixture of every co-resident.
//
// Shutter profiling adds a third stream: per-resource minima over brief
// samples, approximating the mixture during some co-resident's quietest
// phase.
//
// Create one with NewEpisode and call Step until satisfied (the controlled
// experiment stops on correct identification; a real adversary stops on
// confidence), then Candidates to disentangle co-residents.
type Episode struct {
	det *Detector
	s   *sim.Server
	adv *probe.Adversary

	core    signal
	uncore  signal
	shutter signal // minima; known only after a shutter pass
	// sigs holds the per-core sibling signatures from the latest
	// CoreSignatures pass: one 4-entry core-pressure vector per distinct
	// co-resident sharing a core with the adversary.
	sigs []sim.Vector
	// mrcSlope is the measured cache-spill response of the mixture (extra
	// observed MemBW pressure per unit of the adversary's own LLC
	// intensity); negative means not yet measured.
	mrcSlope float64

	Iterations  int
	Ticks       sim.Tick
	UsedShutter bool
	CoreShared  bool

	// muBuf backs missingUncore's return value, reused across iterations.
	muBuf [2]sim.Resource

	// obsBuf/knownBuf back combined()'s return values, reused across the
	// episode's iterations. An episode belongs to a single detection flow
	// (one goroutine), and the recommender only reads the observation
	// during Detect, so handing out the same buffers each time is safe.
	obsBuf   []float64
	knownBuf []bool

	// memo* cache the last Rec.Detect call. The recommender is immutable
	// after training and Detect is a pure function of (obs, known), so an
	// identical observation must produce an identical result. Episodes
	// re-detect without new evidence often — Step detects before and after
	// an escalation whose measurements may not change the combined view
	// (shutter folds into a stream combined() ignores, the MRC rung only
	// sets mrcSlope), and Candidates starts from the same observation the
	// last Step ended on — so roughly four in ten Detect calls repeat the
	// previous one exactly. The memo lives on the episode, not the shared
	// detector, keeping the detector concurrency-safe.
	memoValid bool
	memoObs   [sim.NumResources]float64
	memoKnown [sim.NumResources]bool
	memoRes   *mining.Result

	// mix is Candidates' working memory, reused across its calls.
	mix mixSearch
}

// detect is Rec.Detect behind the single-entry memo. Callers treat the
// returned result as read-only (they already do: Step and Candidates hand
// it out directly), so returning the cached pointer is safe.
//
//bolt:hotpath
func (e *Episode) detect(obs []float64, known []bool) *mining.Result {
	var o [sim.NumResources]float64
	var k [sim.NumResources]bool
	copy(o[:], obs)
	copy(k[:], known)
	if e.memoValid && o == e.memoObs && k == e.memoKnown {
		return e.memoRes
	}
	res := e.det.Rec.Detect(obs, known)
	e.memoObs, e.memoKnown, e.memoRes, e.memoValid = o, k, res, true
	return res
}

// NewEpisode starts a detection episode for the adversary on server s.
func (d *Detector) NewEpisode(s *sim.Server, adv *probe.Adversary) *Episode {
	return &Episode{det: d, s: s, adv: adv, mrcSlope: -1}
}

// merge folds a profile's measurements into the per-stream observations.
//
//bolt:hotpath
func (e *Episode) merge(p probe.Profile) {
	for _, r := range p.Resources {
		if !p.Known[r] {
			continue
		}
		if r.IsCore() {
			e.core.fold(r, p.Observed.Get(r))
		} else {
			e.uncore.fold(r, p.Observed.Get(r))
		}
	}
	e.Ticks += p.Ticks
	if p.CoreShared {
		e.CoreShared = true
	}
}

// combined returns the single-victim-hypothesis observation: core and
// uncore streams merged (the core signal is genuinely the victim's when
// only one co-resident exists). The returned slices are the episode's
// reusable buffers — valid until the next combined call, which is exactly
// the lifetime the Detect calls below need.
//
//bolt:hotpath
func (e *Episode) combined() ([]float64, []bool) {
	if e.obsBuf == nil {
		e.obsBuf = make([]float64, sim.NumResources)
		e.knownBuf = make([]bool, sim.NumResources)
	}
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		v, k := 0.0, false
		if r.IsCore() {
			if e.core.known[r] {
				v, k = e.core.obs.Get(r), true
			}
		} else if e.uncore.known[r] {
			v, k = e.uncore.obs.Get(r), true
		}
		e.obsBuf[r] = v
		e.knownBuf[r] = k
	}
	return e.obsBuf, e.knownBuf
}

// Step runs one profiling iteration starting at the given tick and returns
// the recommender's current single-victim view. When that view is weak the
// iteration escalates per §3.3: full core profiling when a core is shared,
// shutter profiling otherwise.
func (e *Episode) Step(start sim.Tick) *mining.Result {
	e.Iterations++
	p := e.adv.ProfileOnce(e.s, start+e.Ticks, e.det.cfg.ExtraBench)
	e.merge(p)

	obs, known := e.combined()
	res := e.detect(obs, known)
	if res.Best().Similarity >= stopSimilarity {
		return res
	}

	// Escalation (§3.3): a weak match means an unseen type or a mixture.
	// The ladder prioritises the most informative missing measurement:
	// finish the sibling's core profile, then complete the uncore mixture,
	// then hunt for quiet phases with the shutter.
	refreshSigs := func() {
		sigs, used := e.adv.CoreSignatures(e.s, start+e.Ticks)
		e.Ticks += used
		// Merging with the previous pass averages matching signatures,
		// shaving measurement noise iteration over iteration.
		e.sigs = probe.MergeSignatures(e.sigs, sigs)
		// A single signature is the lone sibling's core profile; fold it
		// into the single-victim view.
		if len(e.sigs) == 1 {
			for _, r := range sim.CoreResources() {
				e.core.fold(r, e.sigs[0].Get(r))
			}
		}
	}
	switch {
	case e.CoreShared && e.sigs == nil:
		refreshSigs()
	case e.missingUncore() != nil:
		e.merge(e.adv.ProfileUncore(e.s, start+e.Ticks, e.missingUncore()))
	case e.CoreShared && e.Iterations%2 == 0:
		refreshSigs()
	case !e.det.cfg.DisableMRC && e.mrcSlope < 0:
		slope, used := e.adv.CacheResponseSlope(e.s, start+e.Ticks)
		e.Ticks += used
		e.mrcSlope = slope
	case !e.det.cfg.DisableShutter:
		window := sim.Tick(shutterSamples * 3)
		minV := e.adv.ShutterMin(e.s, start+e.Ticks, shutterSamples, window)
		e.Ticks += window
		e.UsedShutter = true
		for _, r := range sim.UncoreResources() {
			e.shutter.fold(r, minV.Get(r))
		}
	}
	obs, known = e.combined()
	return e.detect(obs, known)
}

// Confidence returns the evidence score of the episode's combined
// observation so far, in [0, 1]: the share of the recommender's
// per-resource similarity weight that was directly observed, blended with
// the observed-entry fraction. Fully observed episodes score 1; heavy fault
// injection drives it down as profiles arrive sparse.
func (e *Episode) Confidence() float64 {
	_, known := e.combined()
	return e.det.confidence(known)
}

// Grade applies the graceful-degradation rule to res, the episode's
// current recommender view: the label degrades to UnknownLabel when the
// combined observation's confidence is below the detector's floor or no
// match clears the recommender's similarity floor.
func (e *Episode) Grade(res *mining.Result) (label string, confidence float64, unknown bool) {
	confidence = e.Confidence()
	unknown = confidence < minConfidence || !res.Confident()
	label = res.Best().Label
	if unknown {
		label = UnknownLabel
	}
	return label, confidence, unknown
}

// missingUncore lists up to two uncore resources not yet measured, or nil.
// The cap keeps each iteration within the paper's 2-5 s profiling budget;
// later iterations pick up the rest. The returned slice is backed by the
// episode's muBuf, valid until the next missingUncore call — Step consumes
// it before re-profiling, so the reuse is invisible there.
//
//bolt:hotpath
func (e *Episode) missingUncore() []sim.Resource {
	out := e.muBuf[:0]
	// Index loop over the uncore resources; ascending index order matches
	// sim.UncoreResources() exactly, without the per-call slice.
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		if r.IsCore() {
			continue
		}
		if !e.uncore.known[r] {
			out = append(out, r)
			if len(out) == 2 {
				break
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// saturatedFloor is the measured mixture level above which a resource is
// treated as clamped: the true aggregate demand may exceed it, so only
// underprediction is penalised there.
const saturatedFloor = 92

// kAcceptRatio is how much the mixture-fit error must improve before an
// extra co-resident hypothesis is accepted — guarding against explaining
// measurement noise with phantom tenants.
const kAcceptRatio = 0.8

// The mixture fit gives every component an intensity scalar α ∈
// [alphaLo, alphaHi], regularised toward alphaPrior with weight lambda.
const (
	alphaLo, alphaHi = 0.5, 1.15
	alphaPrior       = 0.85
	lambda           = 300.0
)

// Candidates disentangles the accumulated observations into up to
// maxVictims per-co-resident results, strongest first. The §3.3
// linear-additivity assumption is applied directly: the set of training
// profiles whose summed uncore pressure best explains the measured mixture
// is searched, with the per-core sibling signatures anchoring one
// component each (hyperthreads are never shared between VMs, so each
// signature belongs to exactly one co-resident), and the shutter minima
// rewarding components that match a quiet-phase observation. Extra
// unanchored components are accepted only when they improve the fit
// substantially.
func (e *Episode) Candidates(maxVictims int) []*mining.Result {
	if maxVictims <= 0 {
		maxVictims = 1
	}
	obs, known := e.combined()
	single := e.detect(obs, known)
	if maxVictims == 1 || e.uncore.knownCount() == 0 {
		return []*mining.Result{single}
	}

	profiles := e.det.Rec.TrainingProfiles()
	m := &e.mix
	m.fill(e, profiles, maxVictims)
	set, bestScore := m.search(maxVictims)

	// A lone component with no anchors means the single-victim hypothesis
	// carries the day — return the ranked single-victim result for it.
	if len(set) == 1 && m.na == 0 {
		return []*mining.Result{single}
	}

	out := make([]*mining.Result, 0, len(set))
	for _, i := range set {
		p := profiles[i]
		out = append(out, &mining.Result{
			Pressure: append([]float64(nil), p.Pressure...),
			Matches: []mining.Match{{
				Label:      p.Label,
				Class:      p.Class,
				Similarity: math.Exp(-bestScore / 20),
			}},
		})
	}
	return out
}

// mixSearch is the working memory of the decomposition search: tables of
// every score term that depends on one training profile alone, computed
// once per search by fill, plus the shortlists and trial sets. An episode
// owns one and reuses it, so after its first search a Candidates call
// allocates only the results it returns.
type mixSearch struct {
	n  int // training profiles
	na int // anchors: sibling signatures in use, at most maxVictims

	// The known uncore readings in resource order: meas[k] is the k-th
	// reading; rows[k*n+i] is profile i's training pressure on its
	// resource; fit[:nfit] are the k of the non-saturated readings, the
	// ones the coordinate descent fits.
	nk, nfit int
	meas     [sim.NumResources]float64
	fit      [sim.NumResources]int
	rows     []float64

	// Per-profile terms, indexed by profile.
	den  []float64 // λ + Σ s² over the fit rows: the descent's denominator
	lone []float64 // the profile as a lone, one-sided explanation of the mixture
	sig  []float64 // [ai*n+i]: anchor ai's share of the score for profile i
	shut []float64 // distance to the shutter minima, when shutterOn
	mrc  []float64 // predicted cache-spill slope LLC·spill·SpillScale
	key  []float64 // the shortlist being ranked

	shutterOn bool
	mrcSlope  float64 // the episode's measured slope; negative: no MRC term

	top         []indexScore // topByScore's bounded buffer
	lists       []int        // backing store of every shortlist
	anchorLists [][]int
	free        []int
	alphas      []float64
	set, trial  []int
}

// indexScore is an index/score pair of a shortlist being ranked.
type indexScore struct {
	i int
	s float64
}

// fill computes the search's per-profile tables and shortlists for the
// episode's current observations, with up to maxVictims anchors.
//
//bolt:hotpath
func (m *mixSearch) fill(e *Episode, profiles []mining.LabeledProfile, maxVictims int) {
	// Shortlist lengths: per anchor, for the shutter-difference anchor, and
	// for the unanchored (free) slots.
	const anchorShortlist, diffShortlist, freeShortlist = 8, 10, 40
	const coreWeight = 1.0

	n := len(profiles)
	na := len(e.sigs)
	if na > maxVictims {
		na = maxVictims
	}
	m.n, m.na = n, na

	var res [sim.NumResources]sim.Resource
	nk, nfit := 0, 0
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		if r.IsCore() || !e.uncore.known[r] {
			continue
		}
		v := e.uncore.obs.Get(r)
		res[nk], m.meas[nk] = r, v
		if v < saturatedFloor {
			m.fit[nfit] = nk
			nfit++
		}
		nk++
	}
	m.nk, m.nfit = nk, nfit

	// Shutter anchor: reward a component that matches the quiet-phase
	// minima (the steady co-resident alone). Only meaningful when the
	// shutter actually caught a quiet phase — the minima must fall well
	// below the mean mixture somewhere; with constant-load co-residents
	// they track the mixture itself and carry no per-component signal
	// (§3.3's stated limitation).
	m.shutterOn = false
	if e.UsedShutter {
		for r := sim.Resource(0); r < sim.NumResources; r++ {
			if !r.IsCore() && e.shutter.known[r] && e.uncore.known[r] &&
				e.shutter.obs.Get(r) < 0.72*e.uncore.obs.Get(r) &&
				e.uncore.obs.Get(r) > 25 {
				m.shutterOn = true
				break
			}
		}
	}
	m.mrcSlope = e.mrcSlope

	if cap(m.den) < n {
		m.den, m.lone, m.shut = make([]float64, n), make([]float64, n), make([]float64, n)
		m.mrc, m.key = make([]float64, n), make([]float64, n)
	}
	if cap(m.rows) < nk*n {
		// Room for every uncore resource: nk only grows over an episode.
		m.rows = make([]float64, len(sim.UncoreResources())*n)
	}
	if cap(m.sig) < na*n {
		m.sig = make([]float64, na*n)
	}
	if cap(m.anchorLists) < na {
		m.anchorLists = make([][]int, na)
	}
	if need := na*anchorShortlist + diffShortlist + freeShortlist; cap(m.lists) < need {
		m.lists = make([]int, need)
	}
	if cap(m.alphas) < maxVictims {
		m.alphas = make([]float64, maxVictims)
		m.set, m.trial = make([]int, 0, maxVictims), make([]int, 0, maxVictims)
	}
	rows, den, lone, key := m.rows[:nk*n], m.den[:n], m.lone[:n], m.key[:n]

	for i := range profiles {
		p := profiles[i].Pressure
		for k := 0; k < nk; k++ {
			rows[k*n+i] = p[res[k]]
		}
		sq := lambda
		for _, k := range m.fit[:nfit] {
			s := rows[k*n+i]
			sq += s * s
		}
		den[i] = sq
		// Lone explanation, with one-sided error: overshoot is forgiven
		// (another tenant may supply the rest), undershoot beyond the
		// mixture is impossible and penalised.
		err := 0.0
		for k := 0; k < nk; k++ {
			d := rows[k*n+i] - m.meas[k]
			if d < 0 {
				d = 0 // the rest of the mixture covers it
			}
			err += d * d
		}
		lone[i] = math.Sqrt(err / float64(nk))
		if m.shutterOn {
			err, wsum := 0.0, 0.0
			for r := sim.Resource(0); r < sim.NumResources; r++ {
				if r.IsCore() || !e.shutter.known[r] {
					continue
				}
				d := p[r] - e.shutter.obs.Get(r)
				err += d * d
				wsum++
			}
			m.shut[i] = math.Sqrt(err / wsum)
		}
		if m.mrcSlope >= 0 {
			v := sim.FromSlice(p)
			m.mrc[i] = v.Get(sim.LLC) * sim.CacheSpillFactor(&v) * sim.SpillScale
		}
	}

	// Shortlists: per anchor, the profiles whose core profile matches its
	// signature; for free slots, the best lone-explanation profiles.
	lists := m.lists[:cap(m.lists)]
	m.anchorLists = m.anchorLists[:na]
	for ai := 0; ai < na; ai++ {
		sig := &e.sigs[ai]
		for i := range profiles {
			se := sigErr(sig, profiles[i].Pressure)
			m.sig[ai*n+i] = coreWeight * se / float64(na)
			key[i] = se + 0.5*lone[i]
		}
		m.anchorLists[ai] = m.topByScore(lists, key, anchorShortlist)
		lists = lists[len(m.anchorLists[ai]):]
	}
	nd := 0
	if m.shutterOn {
		// The mixture minus the quiet-phase minima approximates the bursty
		// co-resident's own load-dependent footprint — an uncore anchor for
		// one unanchored component, ranked ahead of the free list.
		var diff sim.Vector
		for r := sim.Resource(0); r < sim.NumResources; r++ {
			if !r.IsCore() && e.uncore.known[r] && e.shutter.known[r] {
				d := e.uncore.obs.Get(r) - e.shutter.obs.Get(r)
				if d < 0 {
					d = 0
				}
				diff.Set(r, d)
			}
		}
		for i := range profiles {
			key[i] = diffErr(e, &diff, profiles[i].Pressure)
		}
		nd = len(m.topByScore(lists, key, diffShortlist))
	}
	m.free = lists[:nd+len(m.topByScore(lists[nd:], lone, freeShortlist))]
}

// sigErr scores training pressures p against one sibling core signature.
// The sibling runs at its own (unknown, below-peak) load, so a scalar
// α ∈ [0.7, 1.05] is fitted first, exactly as for the uncore mixture.
func sigErr(sig *sim.Vector, p []float64) float64 {
	num, den := 0.0, 0.0
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		if !r.IsCore() {
			continue
		}
		s := p[r]
		num += s * sig.Get(r)
		den += s * s
	}
	alpha := 1.0
	if den > 0 {
		alpha = num / den
		if alpha < 0.7 {
			alpha = 0.7
		}
		if alpha > 1.05 {
			alpha = 1.05
		}
	}
	err, wsum := 0.0, 0.0
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		if !r.IsCore() {
			continue
		}
		d := alpha*p[r] - sig.Get(r)
		err += d * d
		wsum++
	}
	return math.Sqrt(err / wsum)
}

// diffErr scores training pressures p against diff, the mixture minus the
// shutter minima, over the resources both streams measured, after fitting
// a scalar α ∈ [0.4, 1.1].
func diffErr(e *Episode, diff *sim.Vector, p []float64) float64 {
	num, den := 0.0, 0.0
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		if r.IsCore() || !e.uncore.known[r] || !e.shutter.known[r] {
			continue
		}
		s := p[r]
		num += s * diff.Get(r)
		den += s * s
	}
	alpha := 1.0
	if den > 0 {
		alpha = num / den
		if alpha < 0.4 {
			alpha = 0.4
		}
		if alpha > 1.1 {
			alpha = 1.1
		}
	}
	err, wsum := 0.0, 0.0
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		if r.IsCore() || !e.uncore.known[r] || !e.shutter.known[r] {
			continue
		}
		d := alpha*p[r] - diff.Get(r)
		err += d * d
		wsum++
	}
	return math.Sqrt(err / wsum)
}

// topByScore writes to dst, which must have room for k, the indices of the
// k smallest keys in ascending (key, index) order, and returns that prefix
// of dst. A sorted buffer of the best k so far is kept by binary insertion.
// Keys arrive in index order, so a later key displaces or precedes an
// earlier one only when strictly smaller; that is the (key, index) order,
// a total order on finite keys, so the result is exactly the first k of a
// full sort. A NaN key sorts after everything, as it did in the full sort.
//
//bolt:hotpath
func (m *mixSearch) topByScore(dst []int, keys []float64, k int) []int {
	if k > len(keys) {
		k = len(keys)
	}
	if cap(m.top) < k {
		m.top = make([]indexScore, k)
	}
	top := m.top[:k]
	c := 0
	for i, s := range keys {
		if c == k {
			if !(s < top[c-1].s) {
				continue
			}
			c--
		}
		lo, hi := 0, c
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s < top[mid].s {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(top[lo+1:c+1], top[lo:c])
		top[lo] = indexScore{i, s}
		c++
	}
	dst = dst[:c]
	for j := range dst {
		dst[j] = top[j].i
	}
	return dst
}

// search runs the decomposition over the filled tables: the best anchored
// start, greedy extension with unanchored components, then coordinate-
// descent refinement. It returns the chosen set (the search's own buffer)
// and its score.
//
//bolt:hotpath
func (m *mixSearch) search(maxVictims int) ([]int, float64) {
	// Initial set: the best shortlist entry per anchor.
	set := m.set[:0]
	for ai := 0; ai < m.na; ai++ {
		set = append(set, m.anchorLists[ai][0])
	}
	if len(set) == 0 {
		// No anchors: start from the best single explanation.
		set = append(set, m.free[0])
	}
	bestScore := m.score(set)

	// Greedy extension with unanchored components, accepted only on a
	// substantial fit improvement. Without a core anchor there is no direct
	// evidence of multi-tenancy at all, so the bar is far higher — a lone
	// co-resident must not be split into phantoms.
	accept := kAcceptRatio
	if m.na == 0 {
		accept = 0.45
	}
	trial := m.trial[:0]
	for len(set) < maxVictims {
		extBest, extScore := -1, bestScore
		for _, i := range m.free {
			trial = append(trial[:0], set...)
			trial = append(trial, i)
			if s, ok := m.scoreBelow(trial, extScore); ok {
				extBest, extScore = i, s
			}
		}
		if extBest < 0 || extScore >= bestScore*accept {
			break
		}
		set = append(set, extBest)
		bestScore = extScore
	}

	// Coordinate-descent refinement: revisit each slot against its
	// shortlist (anchored) or the free list (unanchored), up to two passes.
	// The trial buffer is re-filled from set each time, and an improvement
	// is copied back rather than swapped in, so set never aliases the
	// buffer the next trial overwrites. No trial is scored twice to the
	// same end: alt == set[si] is set itself, whose score is bestScore, and
	// a pass that improves nothing leaves the next pass the same inputs.
	for pass := 0; pass < 2; pass++ {
		improved := false
		for si := range set {
			candidatesFor := m.free
			if si < m.na {
				candidatesFor = m.anchorLists[si]
			}
			for _, alt := range candidatesFor {
				if alt == set[si] {
					continue
				}
				trial = append(trial[:0], set...)
				trial[si] = alt
				if s, ok := m.scoreBelow(trial, bestScore); ok {
					copy(set, trial)
					bestScore = s
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	m.set, m.trial = set, trial
	return set, bestScore
}

// score evaluates a component set: anchored slots (the first na entries of
// idxs, matched positionally to the anchors) plus free slots.
//
//bolt:hotpath
func (m *mixSearch) score(idxs []int) float64 {
	return m.withTerms(m.sumFit(idxs), idxs)
}

// withTerms adds the set's other score terms to fit, in score's order: the
// shutter and MRC terms, then each anchor's share.
//
//bolt:hotpath
func (m *mixSearch) withTerms(fit float64, idxs []int) float64 {
	s := fit + m.shutterErr(idxs) + m.mrcErr(idxs)
	for ai := 0; ai < m.na && ai < len(idxs); ai++ {
		s += m.sig[ai*m.n+idxs[ai]]
	}
	return s
}

// scoreBelow returns the set's score and whether it is below thr, the test
// a trial must pass to be taken. A set whose bound — withTerms of fitBound
// — is already at or above thr is not scored: fitBound ≤ sumFit, and IEEE
// addition is monotone in each operand, so its score is at or above the
// bound too, or NaN, and fails the test either way. A NaN bound fails the
// skip test, and the set is scored.
//
//bolt:hotpath
func (m *mixSearch) scoreBelow(idxs []int, thr float64) (float64, bool) {
	if m.withTerms(m.fitBound(idxs), idxs) >= thr {
		return 0, false
	}
	s := m.score(idxs)
	return s, s < thr
}

// fitBound is a lower bound on sumFit(idxs) that runs no descent: whatever
// the descent ends at, each α is in [alphaLo, alphaHi], or NaN, which makes
// sumFit NaN. A reading's pred, summed in sumFit's order, is therefore at
// least lo, the same sum with each α·v at its least over that range, and
// at most hi, the sum at its greatest — IEEE multiplication and addition
// are monotone. Where lo overshoots a non-saturated reading, pred
// overshoots it by more; where hi undershoots a reading, pred undershoots
// it by more; elsewhere the error term is at least 0. Squares, the sum,
// the division by nk and the square root are monotone too, so fitBound ≤
// sumFit bit for bit whenever sumFit is not NaN. A NaN row or reading makes
// the bound NaN.
//
//bolt:hotpath
func (m *mixSearch) fitBound(idxs []int) float64 {
	n := m.n
	err := 0.0
	for k := 0; k < m.nk; k++ {
		row := m.rows[k*n : (k+1)*n]
		meas := m.meas[k]
		lo, hi := 0.0, 0.0
		for _, i := range idxs {
			if v := row[i]; v >= 0 {
				lo += alphaLo * v
				hi += alphaHi * v
			} else {
				lo += alphaHi * v
				hi += alphaLo * v
			}
		}
		d := 0.0
		switch dl, dh := lo-meas, hi-meas; {
		case dl > 0 && meas < saturatedFloor:
			d = dl
		case dh < 0:
			d = dh
		case dl != dl || dh != dh:
			return math.NaN()
		}
		err += d * d
	}
	return math.Sqrt(err / float64(m.nk))
}

// sumFit is the mixture-fit error of a component set. Each co-resident
// runs at its own (unknown) load and deployment size, so the fit gives
// every component an intensity scalar αᵢ ∈ [alphaLo, alphaHi], solved by
// regularised coordinate descent on the non-saturated resources — training
// profiles are measured at the reference deployment. The descent stops at
// the first pass that changes no α: a pass is a pure function of the α it
// starts from, so every later pass would return the same bits. A NaN α
// never compares equal and runs all twelve passes.
//
//bolt:hotpath
func (m *mixSearch) sumFit(idxs []int) float64 {
	n := m.n
	alphas := m.alphas[:len(idxs)]
	for i := range alphas {
		alphas[i] = alphaPrior
	}
	for pass := 0; pass < 12; pass++ {
		changed := false
		for ci, i := range idxs {
			num := lambda * alphaPrior
			for _, k := range m.fit[:m.nfit] {
				row := m.rows[k*n : (k+1)*n]
				resid := m.meas[k]
				for cj, j := range idxs {
					if cj != ci {
						resid -= alphas[cj] * row[j]
					}
				}
				num += row[i] * resid
			}
			a := num / m.den[i]
			if a < alphaLo {
				a = alphaLo
			}
			if a > alphaHi {
				a = alphaHi
			}
			if a != alphas[ci] {
				changed = true
			}
			alphas[ci] = a
		}
		if !changed {
			break
		}
	}
	err := 0.0
	for k := 0; k < m.nk; k++ {
		row := m.rows[k*n : (k+1)*n]
		meas := m.meas[k]
		pred := 0.0
		for ci, i := range idxs {
			pred += alphas[ci] * row[i]
		}
		d := pred - meas
		if meas >= saturatedFloor && d > 0 {
			d = 0 // clamped: the mixture may truly exceed the reading
		}
		err += d * d
	}
	return math.Sqrt(err / float64(m.nk))
}

// shutterErr is the set's best match to the shutter minima, softened
// because minima are biased low; zero when the shutter caught no quiet
// phase.
func (m *mixSearch) shutterErr(idxs []int) float64 {
	if !m.shutterOn {
		return 0
	}
	best := math.Inf(1)
	for _, i := range idxs {
		if s := m.shut[i]; s < best {
			best = s
		}
	}
	return best * 0.4
}

// mrcErr compares the measured cache-spill slope against what the set
// predicts (the §3.3 miss-ratio-curve extension), as a soft term: one
// equation among many. Zero before the slope is measured.
func (m *mixSearch) mrcErr(idxs []int) float64 {
	if m.mrcSlope < 0 {
		return 0
	}
	pred := 0.0
	for _, i := range idxs {
		pred += m.mrc[i]
	}
	diff := pred - m.mrcSlope
	if diff < 0 {
		diff = -diff
	}
	return diff * 0.25
}
