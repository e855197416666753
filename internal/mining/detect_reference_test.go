package mining

// detectReference is Detect as it was before the ranking was bounded to
// its first MatchesKept entries: every profile scored with its proximity
// factor, the full ranking sorted, all of it returned. The code is kept
// verbatim apart from the ranking keys, which the bounded scratch no
// longer holds, so they are allocated here. TestDetectPrefixMatchesReference
// holds Detect's head to this ranking's, bit for bit.
func (r *Recommender) detectReference(observed []float64, known []bool) *Result {
	s := r.scratch.Get().(*detectScratch)
	defer r.scratch.Put(s)
	rank := make([]rankKey, len(r.profiles))
	pressure := s.dense
	r.complete.CompleteInto(pressure, observed, known)
	res := &Result{
		Pressure: append([]float64(nil), pressure...),
		Matches:  make([]Match, len(r.profiles)),
	}
	weights := s.weights
	copy(weights, r.weights)
	for j, k := range known {
		if k {
			weights[j] *= measuredBoost
		}
	}
	var u []float64
	if r.cfg.PureCF {
		copy(s.x, pressure)
		for j := range s.x {
			s.x[j] -= r.means[j]
		}
		r.svd.ProjectInto(s.u, s.x)
		u = s.u
	}
	centred := s.centred
	for j := range centred {
		centred[j] = pressure[j] - r.means[j]
	}
	sigma, proxWeights := weights, weights
	if r.cfg.Unweighted {
		sigma, proxWeights = r.ones, nil
	}
	q := momentsOf(centred, sigma)
	for i := range r.profiles {
		var sim float64
		if r.cfg.PureCF {
			sim = CosineSimilarity(u, r.concepts[i])
		} else {
			prof, raw := r.centred[i*r.n:(i+1)*r.n], r.profiles[i].Pressure
			sim = pearsonAgainst(centred, prof, sigma, q) * proximity(pressure, raw, proxWeights)
		}
		rank[i] = rankKey{sim: sim, idx: int32(i)}
	}
	rankBySimilarity(rank)
	for k, key := range rank {
		p := &r.profiles[key.idx]
		res.Matches[k] = Match{Label: p.Label, Class: p.Class, Similarity: key.sim}
		if r.cfg.PureCF {
			res.Matches[k].Label = ""
		}
	}
	return res
}

// rankBySimilarity orders keys by decreasing similarity, stably: the binary
// insertion sort the full ranking used. On numbers its output is
// sort.SliceStable's by decreasing similarity; a NaN key compares false
// both ways, so it lands wherever the search happens to leave it.
func rankBySimilarity(keys []rankKey) {
	for i := 1; i < len(keys); i++ {
		x := keys[i]
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[mid].sim >= x.sim {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(keys[lo+1:i+1], keys[lo:i])
		keys[lo] = x
	}
}
