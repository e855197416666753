// Fused, unrolled vector kernels for the detection hot path. Every kernel
// performs the exact sequence of floating-point operations of the scalar
// loop it replaces — one accumulator, same evaluation order per element — so
// swapping it in changes no result bit anywhere in the pipeline. The speedup
// comes from 4-way unrolling (fewer loop branches), full-slice expressions
// that let the compiler drop bounds checks, and fusing read-modify-write
// updates that the call sites previously spelled out element by element.
package mining

import "math"

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

// foldSolve is CompleteInto's gated fold-in solve at any rank r = len(u):
// up to foldInIters sweeps of foldStep over the known columns kidx of the
// row-major n×r factor matrix qdata, stopping once a full sweep moves no
// coordinate by more than foldInTol·‖u‖∞ (never, when fixed). prev is
// scratch of length r for the sweep-boundary snapshot.
//
//bolt:hotpath
func foldSolve(u, prev, qdata []float64, kidx []int, observed []float64, lr, reg float64, fixed bool) {
	r := len(u)
	for it := 0; it < foldInIters; it++ {
		copy(prev, u)
		for _, j := range kidx {
			qj := qdata[j*r : (j+1)*r : (j+1)*r]
			err := observed[j] - Dot(u, qj)
			foldStep(u, qj, lr, err, reg)
		}
		if fixed {
			continue
		}
		maxDelta, maxU := 0.0, 0.0
		for k := range u {
			if d := math.Abs(u[k] - prev[k]); d > maxDelta {
				maxDelta = d
			}
			if a := math.Abs(u[k]); a > maxU {
				maxU = a
			}
		}
		if maxDelta <= foldInTol*maxU {
			break
		}
	}
}

// foldSolve6 is the rank-6 specialisation of foldSolve — the whole sweep
// loop with the six factor coordinates held in registers, so a sweep touches
// memory only for q and the observed entries. Each statement replicates
// foldSolve's floating-point sequence: the dot product accumulates left to
// right exactly like Dot, the update is foldStep's expression per coordinate,
// and the convergence gate runs the same per-coordinate comparisons in the
// same order. Bit-identity with foldSolve is pinned by
// TestFoldSolve6MatchesGenericBitExact.
//
//bolt:hotpath
func foldSolve6(u, qdata []float64, kidx []int, observed []float64, lr, reg float64, fixed bool) {
	u0, u1, u2, u3, u4, u5 := u[0], u[1], u[2], u[3], u[4], u[5]
	for it := 0; it < foldInIters; it++ {
		p0, p1, p2, p3, p4, p5 := u0, u1, u2, u3, u4, u5
		for _, j := range kidx {
			q := qdata[j*6 : j*6+6 : j*6+6]
			s := 0.0
			s += u0 * q[0]
			s += u1 * q[1]
			s += u2 * q[2]
			s += u3 * q[3]
			s += u4 * q[4]
			s += u5 * q[5]
			err := observed[j] - s
			u0 += lr * (err*q[0] - reg*u0)
			u1 += lr * (err*q[1] - reg*u1)
			u2 += lr * (err*q[2] - reg*u2)
			u3 += lr * (err*q[3] - reg*u3)
			u4 += lr * (err*q[4] - reg*u4)
			u5 += lr * (err*q[5] - reg*u5)
		}
		if fixed {
			continue
		}
		maxDelta, maxU := 0.0, 0.0
		if d := math.Abs(u0 - p0); d > maxDelta {
			maxDelta = d
		}
		if a := math.Abs(u0); a > maxU {
			maxU = a
		}
		if d := math.Abs(u1 - p1); d > maxDelta {
			maxDelta = d
		}
		if a := math.Abs(u1); a > maxU {
			maxU = a
		}
		if d := math.Abs(u2 - p2); d > maxDelta {
			maxDelta = d
		}
		if a := math.Abs(u2); a > maxU {
			maxU = a
		}
		if d := math.Abs(u3 - p3); d > maxDelta {
			maxDelta = d
		}
		if a := math.Abs(u3); a > maxU {
			maxU = a
		}
		if d := math.Abs(u4 - p4); d > maxDelta {
			maxDelta = d
		}
		if a := math.Abs(u4); a > maxU {
			maxU = a
		}
		if d := math.Abs(u5 - p5); d > maxDelta {
			maxDelta = d
		}
		if a := math.Abs(u5); a > maxU {
			maxU = a
		}
		if maxDelta <= foldInTol*maxU {
			break
		}
	}
	u[0], u[1], u[2], u[3], u[4], u[5] = u0, u1, u2, u3, u4, u5
}
