package mining

import (
	"math"
	"sync"

	"bolt/internal/stats"
)

// foldInIters is the number of fold-in sweeps whose iterate CompleteInto
// reports: computed by matrix powers (foldPower) by default, run one by one
// (foldSolve) with FixedFoldIn.
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
	// FixedFoldIn makes CompleteInto run the historical sequential-sweep
	// arithmetic: foldInIters ridge-SGD sweeps, one after another. The
	// default computes the same iterate by matrix powers and agrees with
	// the sweeps to ~1e-12 relative, which no consumer of completed
	// pressure resolves — except code that feeds the raw floats onward
	// into further simulation, like the DoS attack planners, which set
	// this flag to keep their results bit for bit.
	FixedFoldIn bool
}

func (c CompletionConfig) withDefaults(n int) CompletionConfig {
	if c.Rank <= 0 {
		c.Rank = 6
		if n < c.Rank {
			c.Rank = n
		}
	}
	return c
}

// completeScratch holds the per-call working memory of CompleteInto, pooled
// so steady-state completions allocate nothing.
type completeScratch struct {
	u       []float64 // fold-in factor row (rank)
	b, v    []float64 // foldPower: sweep offset and a temporary (rank)
	m, p, t []float64 // foldPower: sweep matrix, its power, product buffer (rank²)
	est     []float64 // neighbourhood estimate (n)
	kidx    []int     // indices of the known observations
}

// newCompleteScratch sizes a scratch for rank r and n resource columns.
func newCompleteScratch(r, n int) *completeScratch {
	return &completeScratch{
		u:    make([]float64, r),
		b:    make([]float64, r),
		v:    make([]float64, r),
		m:    make([]float64, r*r),
		p:    make([]float64, r*r),
		t:    make([]float64, r*r),
		est:  make([]float64, n),
		kidx: make([]int, 0, n),
	}
}

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
// per-call state lives in a sync.Pool of scratch buffers.
type Completer struct {
	cfg      CompletionConfig
	p        *Matrix   // m×r application factors
	q        *Matrix   // n×r resource factors
	train    *Matrix   // retained for the neighbourhood term
	colMeans []float64 // training column means (neighbourhood fallback)
	n        int
	scratch  sync.Pool // *completeScratch
}

// NewCompleter factorises the dense training matrix (one row per training
// application, one column per resource, entries in [0,100]).
func NewCompleter(train *Matrix, cfg CompletionConfig) *Completer {
	cfg = cfg.withDefaults(train.Cols)
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
	c.scratch.New = func() any { return newCompleteScratch(r, n) }
	return c
}

// CompleteInto folds a sparse observation vector into the learned factor
// space and writes the dense prediction into dst (length n), allocating
// nothing. known[j] must be true where observed[j] is a real measurement;
// other entries of observed are ignored. When nothing is known every entry
// is 0.7·(training column mean) + 0.3·clamp(0): the neighbourhood falls
// back to the means and the zero factor row predicts 0. dst may alias
// neither observed nor the scratch internals; it is fully overwritten.
//
//bolt:hotpath
func (c *Completer) CompleteInto(dst, observed []float64, known []bool) {
	if len(observed) != c.n || len(known) != c.n {
		panic("mining: CompleteInto length mismatch")
	}
	if len(dst) != c.n {
		panic("mining: CompleteInto dst length mismatch")
	}
	r := c.cfg.Rank
	s := c.scratch.Get().(*completeScratch)
	defer c.scratch.Put(s)

	s.kidx = s.kidx[:0]
	for j, k := range known {
		if k {
			s.kidx = append(s.kidx, j)
		}
	}

	// Solve for the new row's factors by ridge-regularised least squares on
	// the known entries: the foldInIters-th sweep iterate from zero
	// (equivalent to fold-in SGD but deterministic). The fold-in row has
	// very few observations; the training-time regulariser would shrink it
	// toward zero and bias every prediction low, so it is relaxed here.
	u := s.u
	lr, reg := 0.01, sgdReg*0.1
	if c.cfg.FixedFoldIn {
		foldSolve(u, c.q.Data, s.kidx, observed, lr, reg)
	} else {
		foldPower(s, c.q.Data, s.kidx, observed, lr, reg)
	}

	neighbour := c.neighbourEstimate(s, observed)
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

// neighbourEstimate predicts every column as the similarity-weighted mean
// of the training rows nearest to the observation on its known coordinates
// (s.kidx). Weights follow a Gaussian kernel on the RMS distance, so close
// rows dominate and far rows contribute nothing. The returned slice is
// s.est, valid until the scratch is reused.
//
//bolt:hotpath
func (c *Completer) neighbourEstimate(s *completeScratch, observed []float64) []float64 {
	est := s.est[:c.n]
	for j := range est {
		est[j] = 0
	}
	if len(s.kidx) == 0 {
		// Nothing known: fall back to column means.
		copy(est, c.colMeans)
		return est
	}
	wsum := 0.0
	for i := 0; i < c.train.Rows; i++ {
		row := c.train.Data[i*c.n : (i+1)*c.n]
		d := 0.0
		for _, j := range s.kidx {
			diff := observed[j] - row[j]
			d += diff * diff
		}
		rms := d / float64(len(s.kidx))
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
