package mining

import "math"

// weightedMean returns the σ-weighted mean of u: m(u;σ) = Σσᵢuᵢ / Σσᵢ.
func weightedMean(u, sigma []float64) float64 {
	if len(u) != len(sigma) {
		panic("mining: weightedMean length mismatch")
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

// weightedCov returns the σ-weighted covariance of a and b:
// cov(a,b;σ) = Σσᵢ(aᵢ−m(a;σ))(bᵢ−m(b;σ)) / Σσᵢ.
func weightedCov(a, b, sigma []float64) float64 {
	if len(a) != len(b) || len(a) != len(sigma) {
		panic("mining: weightedCov length mismatch")
	}
	ma, mb := weightedMean(a, sigma), weightedMean(b, sigma)
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
	va := weightedCov(a, a, sigma)
	vb := weightedCov(b, b, sigma)
	if va <= 0 || vb <= 0 {
		return 0
	}
	r := weightedCov(a, b, sigma) / math.Sqrt(va*vb)
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

// moments is one operand's half of Eq. 1 under fixed weights σ with
// Σσ = den: its weighted mean m = Σσᵢxᵢ/den and weighted variance
// Σσᵢ(xᵢ−m)(xᵢ−m)/den — the values weightedMean and weightedCov(x, x, σ)
// return, or both 0 when den is 0, as they do.
type moments struct {
	mean, variance float64
}

// momentsOf computes x's half of Eq. 1 under weights sigma summing to den.
// Each sum runs over the same terms in the same order, each product grouped
// as weightedCov groups it, so both values are the references' own bits.
//
//bolt:hotpath
func momentsOf(x, sigma []float64, den float64) moments {
	if len(x) != len(sigma) {
		panic("mining: momentsOf length mismatch")
	}
	if den == 0 {
		return moments{}
	}
	num := 0.0
	for i := range x {
		num += sigma[i] * x[i]
	}
	m := num / den
	num = 0
	for i := range x {
		num += sigma[i] * (x[i] - m) * (x[i] - m)
	}
	return moments{mean: m, variance: num / den}
}

// pearsonFrom returns WeightedPearson(a, b, sigma), bit for bit, given
// den = Σσ and each operand's moments: all that is left is the covariance
// pass, with each product grouped σᵢ·(aᵢ−m_a)·(bᵢ−m_b) as weightedCov
// writes it, in index order. Detect computes b's moments once per known
// mask and a's once per query.
//
//bolt:hotpath
func pearsonFrom(a, b, sigma []float64, den float64, ma, mb moments) float64 {
	if len(a) != len(b) || len(a) != len(sigma) {
		panic("mining: pearsonFrom length mismatch")
	}
	if ma.variance <= 0 || mb.variance <= 0 { // also Σσ = 0
		return 0
	}
	nab := 0.0
	for i := range b {
		nab += sigma[i] * (a[i] - ma.mean) * (b[i] - mb.mean)
	}
	r := (nab / den) / math.Sqrt(ma.variance*mb.variance)
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
