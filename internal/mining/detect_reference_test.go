package mining

import (
	"math"
	"math/bits"
)

// This file keeps Detect's pre-plan arithmetic as the oracle the planned
// path is held to: the matrix-power fold-in that built its chain on every
// call (foldPower), the Eq. 1 kernel that recomputed each profile's moments
// on every call (queryMoments, momentsOfQuery, pearsonAgainst), the
// proximity factor with nil meaning uniform weights, and the full-ranking
// Detect body over them. Apart from renames where a production name was
// reused, and the scratch each reference allocates for itself, the bodies
// are verbatim.

// foldPowerScratch is foldPower's working memory: the fold-in row, the
// sweep offset and a temporary (rank), and the sweep matrix, its power and
// a product buffer (rank²).
type foldPowerScratch struct {
	u, b, v []float64
	m, p, t []float64
}

func newFoldPowerScratch(r int) *foldPowerScratch {
	return &foldPowerScratch{
		u: make([]float64, r), b: make([]float64, r), v: make([]float64, r),
		m: make([]float64, r*r), p: make([]float64, r*r), t: make([]float64, r*r),
	}
}

// foldPower writes into s.u the iterate foldSolve reaches from u = 0 after
// foldInIters sweeps, composing the sweep matrix and walking the bits of
// foldInIters on every call.
func foldPower(s *foldPowerScratch, qdata []float64, kidx []int, observed []float64, lr, reg float64) {
	u, b, v := s.u, s.b, s.v
	r := len(u)
	m, p, t := s.m, s.p, s.t

	clear(m)
	clear(b)
	for k := 0; k < r; k++ {
		m[k*r+k] = 1
	}
	decay := 1 - lr*reg
	for _, j := range kidx {
		q := qdata[j*r : (j+1)*r : (j+1)*r]
		// M ← decay·M − lr·q·(qᵀM), with v holding qᵀM.
		clear(v)
		for k, qk := range q {
			row := m[k*r : (k+1)*r : (k+1)*r]
			for c := range v {
				v[c] += qk * row[c]
			}
		}
		for k, qk := range q {
			row := m[k*r : (k+1)*r : (k+1)*r]
			a := lr * qk
			for c := range row {
				row[c] = decay*row[c] - a*v[c]
			}
		}
		err := observed[j] - Dot(b, q)
		foldStep(b, q, lr, err, reg)
	}

	copy(p, m)
	copy(u, b)
	for bit := bits.Len(foldInIters) - 2; bit >= 0; bit-- {
		matVec(v, p, u)
		for k := range u {
			u[k] += v[k]
		}
		// Only a doubling reads P, so it is not advanced past the last one.
		if bit > 0 {
			matMul(t, p, p, r)
			p, t = t, p
		}
		if foldInIters>>bit&1 == 0 {
			continue
		}
		matVec(v, m, u)
		for k := range u {
			u[k] = v[k] + b[k]
		}
		if bit > 0 {
			matMul(t, p, m, r)
			p, t = t, p
		}
	}
}

// completeReference is the completion as it ran before plans: the known
// indices gathered and the fold-in solved from scratch on every call.
func (c *Completer) completeReference(dst, observed []float64, known []bool) {
	r := c.cfg.Rank
	var kidx []int
	for j, k := range known {
		if k {
			kidx = append(kidx, j)
		}
	}
	s := newFoldPowerScratch(r)
	u := s.u
	lr, reg := 0.01, sgdReg*0.1
	if c.cfg.FixedFoldIn {
		foldSolve(u, c.q.Data, kidx, observed, lr, reg)
	} else {
		foldPower(s, c.q.Data, kidx, observed, lr, reg)
	}

	neighbour := c.neighbourEstimate(make([]float64, c.n), kidx, observed)
	for j := 0; j < c.n; j++ {
		if known[j] {
			dst[j] = observed[j]
			continue
		}
		qj := c.q.Data[j*r : (j+1)*r]
		v := clamp(Dot(u, qj))
		dst[j] = 0.3*v + 0.7*neighbour[j]
	}
}

// queryMoments is the half of Eq. 1 that depends only on the query a and
// the weights: Σσ, the query's weighted mean and its weighted variance,
// each the value WeightedPearson derives for its first operand.
type queryMoments struct {
	den, mean, variance float64
}

// momentsOfQuery computes the query half of Eq. 1 for query a under
// weights sigma.
func momentsOfQuery(a, sigma []float64) queryMoments {
	den := 0.0
	for _, w := range sigma {
		den += w
	}
	return queryMoments{den: den, mean: weightedMean(a, sigma), variance: weightedCov(a, a, sigma)}
}

// pearsonAgainst returns WeightedPearson(a, b, sigma), bit for bit, given
// q = momentsOfQuery(a, sigma): per profile one pass for b's weighted mean
// and one fused pass accumulating b's variance and the covariance.
func pearsonAgainst(a, b, sigma []float64, q queryMoments) float64 {
	if len(a) != len(b) || len(a) != len(sigma) {
		panic("mining: pearsonAgainst length mismatch")
	}
	if q.variance <= 0 { // also Σσ = 0: weightedCov reports 0 for it
		return 0
	}
	mb := weightedMean(b, sigma)
	nb, nab := 0.0, 0.0
	for i := range b {
		nb += sigma[i] * (b[i] - mb) * (b[i] - mb)
		nab += sigma[i] * (a[i] - q.mean) * (b[i] - mb)
	}
	vb := nb / q.den
	if vb <= 0 {
		return 0
	}
	r := (nab / q.den) / math.Sqrt(q.variance*vb)
	if r != r {
		return 0
	}
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r
}

// proximityReference is proximity with its sum of weights taken on every
// call; weights nil means uniform.
func proximityReference(a, b, weights []float64) float64 {
	num, den := 0.0, 0.0
	for j := range a {
		w := 1.0
		if weights != nil {
			w = weights[j]
		}
		d := a[j] - b[j]
		num += w * d * d
		den += w
	}
	if den == 0 {
		return 1
	}
	return math.Exp(-math.Sqrt(num/den) / proximityScale)
}

// detectReference is Detect before plans and before the ranking was
// bounded to its first MatchesKept entries: the observation completed from
// scratch, every profile scored with its proximity factor, the full ranking
// sorted, all of it returned. TestDetectPrefixMatchesReference and
// TestMaskPlanMatchesReference hold Detect's head to this ranking's, bit
// for bit. It reads no plan and leaves the table untouched.
func (r *Recommender) detectReference(observed []float64, known []bool) *Result {
	rank := make([]rankKey, len(r.profiles))
	pressure := make([]float64, r.n)
	r.complete.completeReference(pressure, observed, known)
	res := &Result{
		Pressure: append([]float64(nil), pressure...),
		Matches:  make([]Match, len(r.profiles)),
	}
	weights := append([]float64(nil), r.weights...)
	for j, k := range known {
		if k {
			weights[j] *= measuredBoost
		}
	}
	var u []float64
	if r.cfg.PureCF {
		x := append([]float64(nil), pressure...)
		for j := range x {
			x[j] -= r.means[j]
		}
		u = make([]float64, len(r.svd.Sigma))
		r.svd.ProjectInto(u, x)
	}
	centred := make([]float64, r.n)
	for j := range centred {
		centred[j] = pressure[j] - r.means[j]
	}
	sigma, proxWeights := weights, weights
	if r.cfg.Unweighted {
		ones := make([]float64, r.n)
		for j := range ones {
			ones[j] = 1
		}
		sigma, proxWeights = ones, nil
	}
	q := momentsOfQuery(centred, sigma)
	for i := range r.profiles {
		var sim float64
		if r.cfg.PureCF {
			sim = CosineSimilarity(u, r.concepts[i])
		} else {
			prof, raw := r.centred[i*r.n:(i+1)*r.n], r.profiles[i].Pressure
			sim = pearsonAgainst(centred, prof, sigma, q) * proximityReference(pressure, raw, proxWeights)
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
