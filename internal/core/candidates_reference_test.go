package core

// The pre-PR-25 decomposition search, kept verbatim as the oracle
// TestCandidatesMatchesReference holds Candidates to bit for bit. Only the
// method name differs; its helpers (sortEntries, sumFitSingleBias, the
// package-level topByScore and maxInt) are the pre-PR-25 ones too, and
// live only here.

import (
	"math"

	"bolt/internal/mining"
	"bolt/internal/sim"
)

// sortEntries orders index/score pairs by ascending score, ties by
// ascending index. The comparator is a total order (indices are distinct),
// so any correct sort produces the exact ordering sort.SliceStable used to
// — this binary insertion sort does so without the closure and interface
// allocations, which mattered once the decomposition search became the
// last allocation site on the episode path. Entry counts are the training
// catalog size (about a hundred), well inside insertion sort's range.
func sortEntries(entries []indexScore) {
	for i := 1; i < len(entries); i++ {
		x := entries[i]
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			e := entries[mid]
			if x.s < e.s || (x.s == e.s && x.i < e.i) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(entries[lo+1:i+1], entries[lo:i])
		entries[lo] = x
	}
}

// candidatesReference is the pre-PR-25 Episode.Candidates.
func (e *Episode) candidatesReference(maxVictims int) []*mining.Result {
	if maxVictims <= 0 {
		maxVictims = 1
	}
	obs, known := e.combined()
	single := e.detect(obs, known)
	if maxVictims == 1 || e.uncore.knownCount() == 0 {
		return []*mining.Result{single}
	}

	profiles := e.det.Rec.TrainingProfiles()
	n := len(profiles)

	// Working memory for the whole search, allocated once up front: the
	// coordinate-descent intensity scalars, the scored-candidate scratch
	// behind topByScore, and the trial component sets of the greedy
	// extension and refinement loops below. The search evaluates score()
	// hundreds of times; before the hoist each evaluation allocated its
	// own copies.
	alphaBuf := make([]float64, maxVictims)
	entriesBuf := make([]indexScore, n)

	// The uncore readings the mixture fit runs against are fixed for the
	// whole search, so hoist them out of the coordinate-descent inner
	// loop: fitR/fitM hold the known, non-saturated resources the descent
	// iterates (in uncore order, so the arithmetic sequence is unchanged),
	// errR/errM the known ones the residual-error pass iterates, and
	// profT the training pressures transposed to fitR-major so the
	// residual loop reads a flat row instead of chasing a profile slice
	// per term.
	var fitR, errR []sim.Resource
	var fitM, errM []float64
	for r := sim.Resource(0); r < sim.NumResources; r++ {
		if r.IsCore() || !e.uncore.known[r] {
			continue
		}
		m := e.uncore.obs.Get(r)
		errR, errM = append(errR, r), append(errM, m)
		if m < saturatedFloor {
			fitR, fitM = append(fitR, r), append(fitM, m)
		}
	}
	profT := make([]float64, len(fitR)*n)
	for k, r := range fitR {
		row := profT[k*n : (k+1)*n]
		for i := range profiles {
			row[i] = profiles[i].Pressure[r]
		}
	}

	// Anchors: one per distinct sibling signature, capped at maxVictims.
	anchors := e.sigs
	if len(anchors) > maxVictims {
		anchors = anchors[:maxVictims]
	}

	// Mixture-fit error of a candidate component set. Each co-resident
	// runs at its own (unknown) load and deployment size, so the fit gives
	// every component an intensity scalar αᵢ ∈ [0.5, 1.15], solved by
	// regularised coordinate descent on the non-saturated resources —
	// training profiles are measured at the reference deployment.
	sumFit := func(idxs []int) float64 {
		const (
			alphaLo, alphaHi = 0.5, 1.15
			alphaPrior       = 0.85
			lambda           = 300.0 // regulariser toward the prior
		)
		alphas := alphaBuf[:len(idxs)]
		for i := range alphas {
			alphas[i] = alphaPrior
		}
		for pass := 0; pass < 12; pass++ {
			for ci, i := range idxs {
				num, den := lambda*alphaPrior, lambda
				for k := range fitR {
					row := profT[k*n : (k+1)*n]
					s := row[i]
					resid := fitM[k]
					for cj, j := range idxs {
						if cj != ci {
							resid -= alphas[cj] * row[j]
						}
					}
					num += s * resid
					den += s * s
				}
				a := num / den
				if a < alphaLo {
					a = alphaLo
				}
				if a > alphaHi {
					a = alphaHi
				}
				alphas[ci] = a
			}
		}
		err, wsum := 0.0, 0.0
		for k, r := range errR {
			m := errM[k]
			pred := 0.0
			for ci, i := range idxs {
				pred += alphas[ci] * profiles[i].Pressure[r]
			}
			d := pred - m
			if m >= saturatedFloor && d > 0 {
				d = 0 // clamped: the mixture may truly exceed the reading
			}
			err += d * d
			wsum++
		}
		if wsum == 0 {
			return 0
		}
		return math.Sqrt(err / wsum)
	}

	// sigErr scores profile i against one sibling core signature. The
	// sibling runs at its own (unknown, below-peak) load, so a scalar
	// α ∈ [0.7, 1.05] is fitted first, exactly as for the uncore mixture.
	sigErr := func(sig *sim.Vector, i int) float64 {
		num, den := 0.0, 0.0
		for _, r := range sim.CoreResources() {
			s := profiles[i].Pressure[r]
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
		for _, r := range sim.CoreResources() {
			d := alpha*profiles[i].Pressure[r] - sig.Get(r)
			err += d * d
			wsum++
		}
		return math.Sqrt(err / wsum)
	}

	// Shutter anchor: reward a component that matches the quiet-phase
	// minima (the steady co-resident alone). Only meaningful when the
	// shutter actually caught a quiet phase — the minima must fall well
	// below the mean mixture somewhere; with constant-load co-residents
	// they track the mixture itself and carry no per-component signal
	// (§3.3's stated limitation).
	shutterUseful := false
	if e.UsedShutter {
		for _, r := range sim.UncoreResources() {
			if e.shutter.known[r] && e.uncore.known[r] &&
				e.shutter.obs.Get(r) < 0.72*e.uncore.obs.Get(r) &&
				e.uncore.obs.Get(r) > 25 {
				shutterUseful = true
				break
			}
		}
	}
	shutterErr := func(idxs []int) float64 {
		if !shutterUseful || e.shutter.knownCount() == 0 {
			return 0
		}
		best := math.Inf(1)
		for _, i := range idxs {
			err, wsum := 0.0, 0.0
			for _, r := range sim.UncoreResources() {
				if !e.shutter.known[r] {
					continue
				}
				d := profiles[i].Pressure[r] - e.shutter.obs.Get(r)
				err += d * d
				wsum++
			}
			if s := math.Sqrt(err / wsum); s < best {
				best = s
			}
		}
		return best * 0.4 // soft: minima are biased low
	}

	// mrcErr compares the measured cache-spill slope against what the
	// candidate set predicts (the §3.3 miss-ratio-curve extension). The
	// predicted response of component i is LLCᵢ·spillᵢ·spillScale.
	mrcErr := func(idxs []int) float64 {
		if e.mrcSlope < 0 {
			return 0
		}
		pred := 0.0
		for _, i := range idxs {
			d := sim.FromSlice(profiles[i].Pressure)
			pred += d.Get(sim.LLC) * sim.CacheSpillFactor(&d) * sim.SpillScale
		}
		diff := pred - e.mrcSlope
		if diff < 0 {
			diff = -diff
		}
		return diff * 0.25 // soft term: one equation among many
	}

	// score evaluates anchored slots (first len(anchors) entries of idxs,
	// matched positionally to anchors) plus free slots.
	const coreWeight = 1.0
	score := func(idxs []int) float64 {
		s := sumFit(idxs) + shutterErr(idxs) + mrcErr(idxs)
		for ai := range anchors {
			if ai < len(idxs) {
				s += coreWeight * sigErr(&anchors[ai], idxs[ai]) / float64(maxInt(1, len(anchors)))
			}
		}
		return s
	}

	// Shortlists: per anchor, the profiles whose core profile matches its
	// signature; for free slots, the best lone-explanation profiles.
	const shortlist = 8
	anchorLists := make([][]int, len(anchors))
	for ai := range anchors {
		sig := &anchors[ai]
		anchorLists[ai] = topByScore(entriesBuf, shortlist, func(i int) float64 {
			return sigErr(sig, i) + 0.5*sumFitSingleBias(e, profiles, i)
		})
	}
	freeList := topByScore(entriesBuf, 40, func(i int) float64 {
		return sumFitSingleBias(e, profiles, i)
	})
	if shutterUseful {
		// The mixture minus the quiet-phase minima approximates the bursty
		// co-resident's own load-dependent footprint — an uncore anchor for
		// one unanchored component.
		var diff sim.Vector
		for _, r := range sim.UncoreResources() {
			if e.uncore.known[r] && e.shutter.known[r] {
				d := e.uncore.obs.Get(r) - e.shutter.obs.Get(r)
				if d < 0 {
					d = 0
				}
				diff.Set(r, d)
			}
		}
		diffErr := func(i int) float64 {
			num, den := 0.0, 0.0
			for _, r := range sim.UncoreResources() {
				if !e.uncore.known[r] || !e.shutter.known[r] {
					continue
				}
				s := profiles[i].Pressure[r]
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
			for _, r := range sim.UncoreResources() {
				if !e.uncore.known[r] || !e.shutter.known[r] {
					continue
				}
				d := alpha*profiles[i].Pressure[r] - diff.Get(r)
				err += d * d
				wsum++
			}
			return math.Sqrt(err / wsum)
		}
		freeList = append(topByScore(entriesBuf, 10, diffErr), freeList...)
	}

	// Initial set: the best shortlist entry per anchor.
	set := make([]int, len(anchors))
	for ai := range anchors {
		set[ai] = anchorLists[ai][0]
	}
	if len(set) == 0 {
		// No anchors: start from the best single explanation.
		set = []int{freeList[0]}
	}
	bestScore := score(set)

	// Greedy extension with unanchored components, accepted only on a
	// substantial fit improvement. Without a core anchor there is no direct
	// evidence of multi-tenancy at all, so the bar is far higher — a lone
	// co-resident must not be split into phantoms.
	accept := kAcceptRatio
	if len(anchors) == 0 {
		accept = 0.45
	}
	trial := make([]int, 0, maxVictims)
	for len(set) < maxVictims {
		extBest, extScore := -1, bestScore
		for _, i := range freeList {
			trial = append(append(trial[:0], set...), i)
			if s := score(trial); s < extScore {
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
	// shortlist (anchored) or the free list (unanchored), two passes. The
	// trial buffer is re-filled from set each time, and an improvement is
	// copied back rather than swapped in, so set never aliases the buffer
	// the next trial overwrites.
	for pass := 0; pass < 2; pass++ {
		for si := range set {
			candidatesFor := freeList
			if si < len(anchorLists) {
				candidatesFor = anchorLists[si]
			}
			for _, alt := range candidatesFor {
				trial = append(trial[:0], set...)
				trial[si] = alt
				if s := score(trial); s < bestScore {
					copy(set, trial)
					bestScore = s
				}
			}
		}
	}

	// A lone component with no anchors means the single-victim hypothesis
	// carries the day — return the full-distribution result for it.
	if len(set) == 1 && len(anchors) == 0 {
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

// sumFitSingleBias scores profile i as a lone explanation of the mixture
// with one-sided error: overshoot is forgiven (another tenant may supply
// the rest), undershoot beyond the mixture is impossible and penalised.
func sumFitSingleBias(e *Episode, profiles []mining.LabeledProfile, i int) float64 {
	err, wsum := 0.0, 0.0
	for _, r := range sim.UncoreResources() {
		if !e.uncore.known[r] {
			continue
		}
		d := profiles[i].Pressure[r] - e.uncore.obs.Get(r)
		if d < 0 {
			d = 0 // the rest of the mixture covers it
		}
		err += d * d
		wsum++
	}
	if wsum == 0 {
		return 0
	}
	return math.Sqrt(err / wsum)
}

// topByScore returns the indices of the k smallest scores among
// [0, len(entries)), using entries as scratch so callers evaluating
// several score functions over the same index range share one buffer.
// The returned shortlist is freshly allocated: callers hold several
// shortlists at once.
func topByScore(entries []indexScore, k int, score func(int) float64) []int {
	n := len(entries)
	for i := 0; i < n; i++ {
		entries[i] = indexScore{i, score(i)}
	}
	sortEntries(entries)
	if k > n {
		k = n
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = entries[i].i
	}
	return out
}

// maxInt returns the larger of two ints.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
