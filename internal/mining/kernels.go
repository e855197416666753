// Fused, unrolled vector kernels for the detection hot path. Every kernel
// performs the exact sequence of floating-point operations of the scalar
// loop it replaces — one accumulator, same evaluation order per element — so
// swapping it in changes no result bit anywhere in the pipeline. The speedup
// comes from 4-way unrolling (fewer loop branches), full-slice expressions
// that let the compiler drop bounds checks, and fusing read-modify-write
// updates that the call sites previously spelled out element by element.
package mining

// Dot returns the inner product of two equal-length vectors. The sum is
// accumulated strictly left to right, exactly like the naive loop.
//
//bolt:hotpath
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mining: Dot length mismatch")
	}
	s := 0.0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		s += x[0] * y[0]
		s += x[1] * y[1]
		s += x[2] * y[2]
		s += x[3] * y[3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y[i] += alpha*x[i] over equal-length vectors — the
// accumulation kernel of the neighbourhood estimate.
//
//bolt:hotpath
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mining: Axpy length mismatch")
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] += alpha * xs[0]
		ys[1] += alpha * xs[1]
		ys[2] += alpha * xs[2]
		ys[3] += alpha * xs[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// sgdStep applies one coupled SGD factor update for a single training cell:
//
//	p[k] += lr * (err*q[k] - reg*p[k])
//	q[k] += lr * (err*p[k] - reg*q[k])   (using the pre-update p[k], q[k])
//
// This is the inner loop of NewCompleter with the temporaries hoisted; the
// per-element expressions are unchanged.
//
//bolt:hotpath
func sgdStep(p, q []float64, lr, err, reg float64) {
	if len(p) != len(q) {
		panic("mining: sgdStep length mismatch")
	}
	for k := 0; k < len(p); k++ {
		pk, qk := p[k], q[k]
		p[k] += lr * (err*qk - reg*pk)
		q[k] += lr * (err*pk - reg*qk)
	}
}

// foldStep applies one ridge-SGD fold-in update for a single observation:
// u[k] += lr*(err*q[k] - reg*u[k]), the inner loop of CompleteInto's
// fold-in solve with the per-element expression unchanged.
//
//bolt:hotpath
func foldStep(u, q []float64, lr, err, reg float64) {
	if len(u) != len(q) {
		panic("mining: foldStep length mismatch")
	}
	q = q[:len(u)]
	for k := 0; k < len(u); k++ {
		uk := u[k]
		u[k] = uk + lr*(err*q[k]-reg*uk)
	}
}

// foldSolve is the sequential fold-in solve at any rank r = len(u): from
// u = 0, exactly foldInIters sweeps of foldStep over the known columns kidx
// of the row-major n×r factor matrix qdata. It is the arithmetic FixedFoldIn
// reproduces bit for bit and the fold-in chain is tested against.
//
//bolt:hotpath
func foldSolve(u, qdata []float64, kidx []int, observed []float64, lr, reg float64) {
	r := len(u)
	clear(u)
	for it := 0; it < foldInIters; it++ {
		for _, j := range kidx {
			qj := qdata[j*r : (j+1)*r : (j+1)*r]
			err := observed[j] - Dot(u, qj)
			foldStep(u, qj, lr, err, reg)
		}
	}
}

// matVec sets dst = a·x for a row-major r×r matrix a, r = len(x).
//
//bolt:hotpath
func matVec(dst, a, x []float64) {
	r := len(x)
	for i := range dst {
		dst[i] = Dot(a[i*r:(i+1)*r:(i+1)*r], x)
	}
}

// matMul sets dst = a·b for row-major r×r matrices; dst may alias neither
// operand.
//
//bolt:hotpath
func matMul(dst, a, b []float64, r int) {
	for i := 0; i < r; i++ {
		di := dst[i*r : (i+1)*r : (i+1)*r]
		clear(di)
		for k, aik := range a[i*r : (i+1)*r] {
			bk := b[k*r : (k+1)*r : (k+1)*r]
			bk = bk[:len(di)]
			for c := range di {
				di[c] += aik * bk[c]
			}
		}
	}
}
