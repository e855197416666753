package mining

import "math"

// WeightedMean returns the σ-weighted mean of u: m(u;σ) = Σσᵢuᵢ / Σσᵢ.
func WeightedMean(u, sigma []float64) float64 {
	if len(u) != len(sigma) {
		panic("mining: WeightedMean length mismatch")
	}
	num, den := 0.0, 0.0
	for i := range u {
		num += sigma[i] * u[i]
		den += sigma[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// WeightedCov returns the σ-weighted covariance of a and b:
// cov(a,b;σ) = Σσᵢ(aᵢ−m(a;σ))(bᵢ−m(b;σ)) / Σσᵢ.
func WeightedCov(a, b, sigma []float64) float64 {
	if len(a) != len(b) || len(a) != len(sigma) {
		panic("mining: WeightedCov length mismatch")
	}
	ma, mb := WeightedMean(a, sigma), WeightedMean(b, sigma)
	num, den := 0.0, 0.0
	for i := range a {
		num += sigma[i] * (a[i] - ma) * (b[i] - mb)
		den += sigma[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// WeightedPearson implements Eq. 1 of the paper: the Pearson correlation of
// two concept-space profiles under singular-value weights, so that stronger
// similarity concepts count more. It returns a value in [-1, 1]; 0 when
// either profile has zero weighted variance.
func WeightedPearson(a, b, sigma []float64) float64 {
	va := WeightedCov(a, a, sigma)
	vb := WeightedCov(b, b, sigma)
	if va <= 0 || vb <= 0 {
		return 0
	}
	r := WeightedCov(a, b, sigma) / math.Sqrt(va*vb)
	// Numerical safety: keep strictly within [-1, 1]. Huge finite inputs
	// can overflow both covariances to +Inf, making r = Inf/Inf = NaN —
	// which would slip through the clamps below — so NaN degrades to the
	// same "no signal" answer as zero variance. Pressure-scale data
	// ([0, 100]) never gets near overflow.
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

// queryMoments is the half of Eq. 1 that depends only on the query a and
// the weights: Σσ, the query's weighted mean and its weighted variance,
// each the value WeightedPearson derives for its first operand. Detect
// computes them once per query and hands them to pearsonAgainst for every
// training profile.
type queryMoments struct {
	den, mean, variance float64
}

// momentsOf computes the query half of Eq. 1 for query a under weights sigma.
//
//bolt:hotpath
func momentsOf(a, sigma []float64) queryMoments {
	den := 0.0
	for _, w := range sigma {
		den += w
	}
	return queryMoments{den: den, mean: WeightedMean(a, sigma), variance: WeightedCov(a, a, sigma)}
}

// pearsonAgainst returns WeightedPearson(a, b, sigma), bit for bit, given
// q = momentsOf(a, sigma). Per profile it makes one pass for b's weighted
// mean and one fused pass accumulating b's variance and the covariance;
// every sum runs over the same terms in the same order, with each product
// grouped as WeightedCov groups it, so the roundings — and the result —
// are WeightedPearson's own. WeightedPearson stays the reference the tests
// hold this to.
//
//bolt:hotpath
func pearsonAgainst(a, b, sigma []float64, q queryMoments) float64 {
	if len(a) != len(b) || len(a) != len(sigma) {
		panic("mining: pearsonAgainst length mismatch")
	}
	if q.variance <= 0 { // also Σσ = 0: WeightedCov reports 0 for it
		return 0
	}
	mb := WeightedMean(b, sigma)
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

// CosineSimilarity returns the cosine of the angle between a and b, used by
// the pure-collaborative-filtering ablation baseline.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
