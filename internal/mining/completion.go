package mining

import (
	"math"
	"math/bits"

	"bolt/internal/stats"
)

// foldInIters is the number of fold-in sweeps whose iterate completeInto
// reports: computed by matrix powers (planFold, foldApply) by default, run
// one by one (foldSolve) with FixedFoldIn.
const foldInIters = 2000

// The training-time SGD schedule, and the range predictions are clamped to
// (resource pressure is a percentage).
const (
	sgdLearnRate = 0.005 // step size
	sgdReg       = 0.02  // L2 regularisation
	sgdEpochs    = 400   // passes over the training cells
	minVal       = 0.0
	maxVal       = 100.0
)

// CompletionConfig tunes the SGD PQ-reconstruction used to recover the
// pressure a victim places on resources Bolt did not profile directly.
type CompletionConfig struct {
	Rank int    // latent factor dimensionality; 0 means min(n, 6)
	Seed uint64 // factor initialisation seed
	// FixedFoldIn makes completeInto run the historical sequential-sweep
	// arithmetic: foldInIters ridge-SGD sweeps, one after another. The
	// default computes the same iterate by matrix powers and agrees with
	// the sweeps to ~1e-12 relative, which no consumer of completed
	// pressure resolves — except code that feeds the raw floats onward
	// into further simulation, like the DoS attack planners, which set
	// this flag to keep their results bit for bit.
	FixedFoldIn bool
}

// WithDefaults resolves the zero fields for n resource columns: a Rank of 0
// is min(n, 6). Two configs that resolve alike train the same Completer.
func (c CompletionConfig) WithDefaults(n int) CompletionConfig {
	if c.Rank <= 0 {
		c.Rank = 6
		if n < c.Rank {
			c.Rank = n
		}
	}
	return c
}

// completeScratch holds the per-call working memory of completeInto.
type completeScratch struct {
	u, b, v []float64 // fold-in factor row, first sweep iterate, a temporary (rank)
	tmp     []float64 // planFold's product buffer (rank²)
	est     []float64 // neighbourhood estimate (n)
}

// newCompleteScratch sizes a scratch for rank r and n resource columns.
func newCompleteScratch(r, n int) completeScratch {
	return completeScratch{
		u:   make([]float64, r),
		b:   make([]float64, r),
		v:   make([]float64, r),
		tmp: make([]float64, r*r),
		est: make([]float64, n),
	}
}

// foldPlan is the half of a completion that depends only on which columns
// are known, not on the observed values: their indices and, unless
// FixedFoldIn, the fold-in chain. chain holds foldDoublings r×r matrices,
// row-major: chain[0] is the sweep matrix M, and matrix k the power of M
// that the k-th doubling of the bit walk multiplies the iterate by.
type foldPlan struct {
	kidx  []int
	chain []float64
}

// foldDoublings is the number of doublings in the bit walk over
// foldInIters = 2000 = 11111010000₂: one per bit below the leading one.
// TestFoldPowerMatchesSweeps checks it against the constant.
const foldDoublings = 10

// Completer performs PQ matrix completion with stochastic gradient descent:
// it factorises the training utility matrix A ≈ P Qᵀ, then folds in a new
// sparse row (the 2-3 profiled resources) to predict the missing entries.
// This is the collaborative-filtering half of Bolt's hybrid recommender.
//
// The raw fold-in is poorly conditioned when the number of observations is
// close to the factor rank (exactly-determined interpolation extrapolates
// wildly on the unobserved coordinates), so predictions are anchored by a
// neighbourhood term: a similarity-weighted average over the training rows
// closest to the observation on its known coordinates.
//
// A Completer is immutable after NewCompleter and safe for concurrent use;
// per-call state lives in a completeScratch the caller owns.
type Completer struct {
	cfg      CompletionConfig
	p        *Matrix   // m×r application factors
	q        *Matrix   // n×r resource factors
	train    *Matrix   // retained for the neighbourhood term
	colMeans []float64 // training column means (neighbourhood fallback)
	n        int
}

// NewCompleter factorises the dense training matrix (one row per training
// application, one column per resource, entries in [0,100]).
func NewCompleter(train *Matrix, cfg CompletionConfig) *Completer {
	cfg = cfg.WithDefaults(train.Cols)
	c := &Completer{cfg: cfg, train: train.Clone(), n: train.Cols}
	rng := stats.NewRNG(cfg.Seed ^ 0xb0172017)

	m, n, r := train.Rows, train.Cols, cfg.Rank
	c.p = NewMatrix(m, r)
	c.q = NewMatrix(n, r)
	for i := range c.p.Data {
		c.p.Data[i] = rng.Norm(0, 0.1)
	}
	for i := range c.q.Data {
		c.q.Data[i] = rng.Norm(0, 0.1)
	}

	// SGD over all cells of the dense training matrix. Cell k of the
	// row-major Data slice is (k/n, k%n), so the flat index doubles as the
	// (i, j) pair and the permutation buffer is the only epoch state —
	// PermInto reshuffles it in place with the exact random stream Perm
	// would consume, making every epoch allocation-free and byte-identical
	// to the historical per-epoch rng.Perm.
	perm := make([]int, m*n)
	for epoch := 0; epoch < sgdEpochs; epoch++ {
		rng.PermInto(perm)
		for _, idx := range perm {
			i, j := idx/n, idx%n
			pi := c.p.Data[i*r : (i+1)*r : (i+1)*r]
			qj := c.q.Data[j*r : (j+1)*r : (j+1)*r]
			err := train.Data[idx] - Dot(pi, qj)
			sgdStep(pi, qj, sgdLearnRate, err, sgdReg)
		}
	}

	c.colMeans = make([]float64, n)
	for j := 0; j < n; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			sum += c.train.At(i, j)
		}
		if m > 0 {
			c.colMeans[j] = sum / float64(m)
		}
	}
	return c
}

// The fold-in's ridge-SGD step and regulariser. The fold-in row has very
// few observations; the training-time regulariser would shrink it toward
// zero and bias every prediction low, so it is relaxed here.
const (
	foldLearnRate = 0.01
	foldReg       = sgdReg * 0.1
)

// planFold fills fp for the known mask: the indices of the known columns
// and, unless FixedFoldIn, the fold-in chain (see foldPlan).
//
//bolt:hotpath
func (c *Completer) planFold(fp *foldPlan, known []bool, tmp []float64) {
	fp.kidx = fp.kidx[:0]
	for j, k := range known {
		if k {
			fp.kidx = append(fp.kidx, j)
		}
	}
	if !c.cfg.FixedFoldIn {
		c.foldChain(fp, tmp)
	}
}

// foldChain fills fp.chain for the known columns fp.kidx, composed in that
// order. One sweep over the known columns is an affine map u ← M·u + b:
// column j contributes the factor (1−lr·reg)·I − lr·q_j·q_jᵀ to M, and b is
// the first sweep iterate, which depends on the observation and is left to
// foldApply. From u_0 = 0 the k-th iterate is u_k = (I + M + … + M^(k−1))·b,
// so the pair (P, u) = (M^k, u_k) doubles by u_2k = u_k + P·u_k, P ← P·P and
// increments by u_(k+1) = M·u_k + b, P ← P·M. Walking the bits of
// foldInIters below its leading one reaches u_foldInIters; the P each
// doubling reads is a product of M alone, so the chain stores them. Only a
// doubling reads P, so it is not advanced past the last one. tmp is an r×r
// buffer.
//
//bolt:hotpath
func (c *Completer) foldChain(fp *foldPlan, tmp []float64) {
	r := c.cfg.Rank
	rr := r * r
	m, v := fp.chain[:rr:rr], tmp[:r:r]
	clear(m)
	for k := 0; k < r; k++ {
		m[k*r+k] = 1
	}
	// Variables, so lr·reg rounds as float64 arithmetic rather than folding
	// exactly as a constant expression would.
	lr, reg := foldLearnRate, foldReg
	decay := 1 - lr*reg
	for _, j := range fp.kidx {
		q := c.q.Data[j*r : (j+1)*r : (j+1)*r]
		// M ← decay·M − lr·q·(qᵀM), with v holding qᵀM.
		clear(v)
		for k, qk := range q {
			row := m[k*r : (k+1)*r : (k+1)*r]
			for x := range v {
				v[x] += qk * row[x]
			}
		}
		for k, qk := range q {
			row := m[k*r : (k+1)*r : (k+1)*r]
			a := lr * qk
			for x := range row {
				row[x] = decay*row[x] - a*v[x]
			}
		}
	}
	p := m
	for k, bit := 1, bits.Len(foldInIters)-2; bit > 0; k, bit = k+1, bit-1 {
		next := fp.chain[k*rr : (k+1)*rr : (k+1)*rr]
		if foldInIters>>bit&1 == 0 {
			matMul(next, p, p, r)
		} else {
			matMul(tmp, p, p, r)
			matMul(next, tmp, m, r)
		}
		p = next
	}
}

// completeInto folds a sparse observation vector into the learned factor
// space and writes the dense prediction into dst (length n), allocating
// nothing. known[j] must be true where observed[j] is a real measurement,
// and fp must be planFold's plan for known; other entries of observed are
// ignored. When nothing is known every entry is 0.7·(training column mean)
// + 0.3·clamp(0): the neighbourhood falls back to the means and the zero
// factor row predicts 0. dst may alias neither observed nor s; it is fully
// overwritten.
//
// The new row's factors solve ridge-regularised least squares on the known
// entries: the foldInIters-th fold-in sweep iterate from zero (equivalent to
// fold-in SGD but deterministic), by the chain, or by running the sweeps
// under FixedFoldIn.
//
//bolt:hotpath
func (c *Completer) completeInto(dst, observed []float64, known []bool, fp *foldPlan, s *completeScratch) {
	if len(observed) != c.n || len(known) != c.n {
		panic("mining: completeInto length mismatch")
	}
	if len(dst) != c.n {
		panic("mining: completeInto dst length mismatch")
	}
	r := c.cfg.Rank
	u := s.u
	if c.cfg.FixedFoldIn {
		foldSolve(u, c.q.Data, fp.kidx, observed, foldLearnRate, foldReg)
	} else {
		c.foldApply(s, fp, observed)
	}

	neighbour := c.neighbourEstimate(s.est, fp.kidx, observed)
	for j := 0; j < c.n; j++ {
		if known[j] {
			dst[j] = observed[j]
			continue
		}
		qj := c.q.Data[j*r : (j+1)*r]
		v := clamp(Dot(u, qj))
		// Blend the latent-factor prediction with the neighbourhood
		// estimate; the latter dominates because it can only produce
		// pressure values actually seen in training.
		dst[j] = 0.3*v + 0.7*neighbour[j]
	}
}

// foldApply writes into s.u the iterate foldSolve reaches from u = 0 after
// foldInIters sweeps over fp.kidx, without running them: the first sweep b,
// then foldChain's bit walk with the chain's powers — 15 matrix-vector
// products whatever the mask or observation. The result is the
// foldInIters-th iterate, not the fixed point (I−M)⁻¹·b the sweeps may
// still be far from (TestFoldPowerMatchesSweeps).
//
//bolt:hotpath
func (c *Completer) foldApply(s *completeScratch, fp *foldPlan, observed []float64) {
	u, b, v := s.u, s.b, s.v
	r := len(u)
	rr := r * r
	clear(b)
	for _, j := range fp.kidx {
		q := c.q.Data[j*r : (j+1)*r : (j+1)*r]
		err := observed[j] - Dot(b, q)
		foldStep(b, q, foldLearnRate, err, foldReg)
	}
	m := fp.chain[:rr:rr]
	copy(u, b)
	for k, bit := 0, bits.Len(foldInIters)-2; bit >= 0; k, bit = k+1, bit-1 {
		matVec(v, fp.chain[k*rr:(k+1)*rr:(k+1)*rr], u)
		for i := range u {
			u[i] += v[i]
		}
		if foldInIters>>bit&1 == 0 {
			continue
		}
		matVec(v, m, u)
		for i := range u {
			u[i] = v[i] + b[i]
		}
	}
}

// neighbourEstimate predicts every column as the similarity-weighted mean
// of the training rows nearest to the observation on its known coordinates
// kidx, written into est. Weights follow a Gaussian kernel on the RMS
// distance, so close rows dominate and far rows contribute nothing.
//
//bolt:hotpath
func (c *Completer) neighbourEstimate(est []float64, kidx []int, observed []float64) []float64 {
	est = est[:c.n]
	for j := range est {
		est[j] = 0
	}
	if len(kidx) == 0 {
		// Nothing known: fall back to column means.
		copy(est, c.colMeans)
		return est
	}
	wsum := 0.0
	for i := 0; i < c.train.Rows; i++ {
		row := c.train.Data[i*c.n : (i+1)*c.n]
		d := 0.0
		for _, j := range kidx {
			diff := observed[j] - row[j]
			d += diff * diff
		}
		rms := d / float64(len(kidx))
		w := gaussKernel(rms, kernelWidth)
		if w == 0 {
			continue
		}
		wsum += w
		Axpy(w, row, est)
	}
	if wsum == 0 {
		// Nothing nearby: fall back to column means.
		copy(est, c.colMeans)
		return est
	}
	for j := range est {
		est[j] /= wsum
	}
	return est
}

// kernelWidth is the Gaussian-kernel bandwidth of the neighbourhood
// estimate, in pressure points.
const kernelWidth = 12.0

// gaussKernel returns exp(−rms²/(2w²)) given the squared RMS distance,
// cutting off to exactly zero for far rows — and for a NaN distance, so a
// NaN observation falls back to the column means instead of poisoning the
// estimate.
//
//bolt:hotpath
func gaussKernel(rmsSquared, width float64) float64 {
	x := rmsSquared / (2 * width * width)
	if !(x <= 30) {
		return 0
	}
	return math.Exp(-x)
}

// Predict returns the model's reconstruction of training cell (i, j); used
// by tests to verify the factorisation fits the training data.
func (c *Completer) Predict(i, j int) float64 {
	r := c.cfg.Rank
	return clamp(Dot(c.p.Data[i*r:(i+1)*r], c.q.Data[j*r:(j+1)*r]))
}

// clamp forces a prediction into [minVal, maxVal].
func clamp(x float64) float64 {
	if x < minVal {
		return minVal
	}
	if x > maxVal {
		return maxVal
	}
	if x != x {
		// NaN falls through both comparisons; pin it to the lower bound so a
		// diverged fold-in on pathological observed values cannot leak NaN
		// into a completed vector.
		return minVal
	}
	return x
}
