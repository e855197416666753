package mining

import (
	"math"
	"math/bits"
	"testing"

	"bolt/internal/stats"
)

// The kernels' contract is stronger than numerical closeness: they must
// reproduce the scalar loops they replaced bit for bit, because the
// experiment suite's regression baseline is byte-identical output. Every
// comparison below is == on float64, not an epsilon.

func randVec(rng *stats.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Range(-5, 5)
	}
	return v
}

func TestDotMatchesNaiveBitExact(t *testing.T) {
	rng := stats.NewRNG(11)
	for n := 0; n <= 33; n++ {
		a, b := randVec(rng, n), randVec(rng, n)
		want := 0.0
		for i := range a {
			want += a[i] * b[i]
		}
		if got := Dot(a, b); got != want {
			t.Fatalf("n=%d: Dot=%v, naive=%v (diff %g)", n, got, want, got-want)
		}
	}
}

func TestAxpyMatchesNaiveBitExact(t *testing.T) {
	rng := stats.NewRNG(12)
	for n := 0; n <= 33; n++ {
		x, y := randVec(rng, n), randVec(rng, n)
		want := append([]float64(nil), y...)
		for i := range want {
			want[i] += 1.75 * x[i]
		}
		Axpy(1.75, x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d i=%d: Axpy=%v, naive=%v", n, i, y[i], want[i])
			}
		}
	}
}

func TestSgdStepMatchesReferenceBitExact(t *testing.T) {
	rng := stats.NewRNG(13)
	const lr, err, reg = 0.01, 1.375, 0.02
	for n := 0; n <= 9; n++ {
		p, q := randVec(rng, n), randVec(rng, n)
		wp := append([]float64(nil), p...)
		wq := append([]float64(nil), q...)
		for k := range wp {
			pk, qk := wp[k], wq[k]
			wp[k] += lr * (err*qk - reg*pk)
			wq[k] += lr * (err*pk - reg*qk)
		}
		sgdStep(p, q, lr, err, reg)
		for k := range p {
			if p[k] != wp[k] || q[k] != wq[k] {
				t.Fatalf("n=%d k=%d: (%v,%v), want (%v,%v)", n, k, p[k], q[k], wp[k], wq[k])
			}
		}
	}
}

func TestFoldStepMatchesReferenceBitExact(t *testing.T) {
	rng := stats.NewRNG(14)
	const lr, err, reg = 0.01, -0.625, 0.002
	for n := 0; n <= 9; n++ {
		u, q := randVec(rng, n), randVec(rng, n)
		want := append([]float64(nil), u...)
		for k := range want {
			want[k] += lr * (err*q[k] - reg*want[k])
		}
		foldStep(u, q, lr, err, reg)
		for k := range u {
			if u[k] != want[k] {
				t.Fatalf("n=%d k=%d: foldStep=%v, want %v", n, k, u[k], want[k])
			}
		}
	}
}

// sweepFixedPoint returns the point the fold-in sweeps converge to, given
// the sweep map u ← M·u + b that foldPower leaves in its scratch: u_k for
// k = 2⁶⁴ by the doubling rule alone, by when M^k has underflowed to zero.
func sweepFixedPoint(m, b []float64) []float64 {
	r := len(b)
	p, t := append([]float64(nil), m...), make([]float64, r*r)
	u, v := append([]float64(nil), b...), make([]float64, r)
	for i := 0; i < 64; i++ {
		matVec(v, p, u)
		Axpy(1, v, u)
		matMul(t, p, p, r)
		p, t = t, p
	}
	return u
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// TestFoldPowerMatchesSweeps is the contract of the matrix-power fold-in:
// at every rank and known count, in any column order, over random and
// trained factors, foldPower lands on the iterate foldInIters sequential
// sweeps reach — to rounding, and exactly zero when nothing is known. With 6
// or 7 of 10 columns known that iterate is still far from the sweeps' fixed
// point (I−M)⁻¹·b, which is why neither side may be replaced by a
// closed-form solve: the reported completion would change.
func TestFoldPowerMatchesSweeps(t *testing.T) {
	if foldDoublings != bits.Len(foldInIters)-1 {
		t.Fatalf("foldDoublings = %d, the bit walk over %d makes %d", foldDoublings, foldInIters, bits.Len(foldInIters)-1)
	}
	const n = 10
	const lr, reg = 0.01, 0.002
	rng := stats.NewRNG(16)
	worst, farFromFixedPoint := 0.0, 0
	for r := 1; r <= 8; r++ {
		normQ := make([]float64, n*r)
		for i := range normQ {
			normQ[i] = rng.Norm(0, 0.5)
		}
		trained := NewCompleter(trainMatrix(uint64(40+r), 30, n), CompletionConfig{Rank: r, Seed: 9})
		for qi, qdata := range [][]float64{normQ, trained.q.Data} {
			for nk := 0; nk <= n; nk++ {
				for rep := 0; rep < 4; rep++ {
					observed := make([]float64, n)
					for j := range observed {
						observed[j] = rng.Range(0, 100)
					}
					kidx := rng.Perm(n)[:nk]
					s := newFoldPowerScratch(r)
					foldPower(s, qdata, kidx, observed, lr, reg)
					want := make([]float64, r)
					foldSolve(want, qdata, kidx, observed, lr, reg)

					// The planned fold-in is foldPower's arithmetic split in
					// two: the chain for the mask, then the per-observation
					// walk. It must land on the same bits.
					c := &Completer{cfg: CompletionConfig{Rank: r}, q: &Matrix{Rows: n, Cols: r, Data: qdata}, n: n}
					fp, cs := newFoldPlan(c), newCompleteScratch(r, n)
					// planFold lists a mask's columns ascending; the chain
					// composes M over fp.kidx in whatever order it is given.
					fp.kidx = append(fp.kidx, kidx...)
					c.foldChain(&fp, cs.tmp)
					c.foldApply(&cs, &fp, observed)
					for k := range cs.u {
						if math.Float64bits(cs.u[k]) != math.Float64bits(s.u[k]) {
							t.Fatalf("rank %d q#%d known=%v k=%d: chain %v, foldPower %v", r, qi, kidx, k, cs.u[k], s.u[k])
						}
					}

					scale := maxAbs(want)
					for k := range want {
						d := math.Abs(s.u[k] - want[k])
						if nk == 0 && s.u[k] != 0 {
							t.Fatalf("rank %d, nothing known: u[%d] = %v, want exactly 0", r, k, s.u[k])
						}
						if d > 1e-11*scale {
							t.Fatalf("rank %d q#%d known=%v k=%d: foldPower=%v, sweeps=%v (rel %.3g)",
								r, qi, kidx, k, s.u[k], want[k], d/scale)
						}
						if scale > 0 {
							worst = math.Max(worst, d/scale)
						}
					}

					if r == 6 && (nk == 6 || nk == 7) {
						fp := sweepFixedPoint(s.m, s.b)
						// That is the limit under foldPower's M and b; check
						// it against the sweep arithmetic itself: one more
						// sweep must leave it in place.
						next := append([]float64(nil), fp...)
						for _, j := range kidx {
							qj := qdata[j*r : (j+1)*r]
							foldStep(next, qj, lr, observed[j]-Dot(next, qj), reg)
						}
						gap := 0.0
						for k := range fp {
							if d := math.Abs(next[k] - fp[k]); d > 1e-9*maxAbs(fp) {
								t.Fatalf("known=%v: (I−M)⁻¹b is not a fixed point of the sweep: coordinate %d moves by %g", kidx, k, d)
							}
							gap = math.Max(gap, math.Abs(want[k]-fp[k]))
						}
						if gap > 1e-6 {
							farFromFixedPoint++
						}
					}
				}
			}
		}
	}
	t.Logf("max relative difference foldPower vs %d sweeps: %.3g", foldInIters, worst)
	if farFromFixedPoint == 0 {
		t.Fatalf("no 6- or 7-known case left u_%d further than 1e-6 from the sweep fixed point; "+
			"the test no longer distinguishes the iterate from a closed-form solve", foldInIters)
	}
	t.Logf("%d of 16 rank-6 cases with 6 or 7 known end further than 1e-6 from the fixed point", farFromFixedPoint)
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	cases := map[string]func(){
		"Dot":      func() { Dot(make([]float64, 3), make([]float64, 4)) },
		"Axpy":     func() { Axpy(1, make([]float64, 3), make([]float64, 4)) },
		"sgdStep":  func() { sgdStep(make([]float64, 3), make([]float64, 4), 0.01, 1, 0.02) },
		"foldStep": func() { foldStep(make([]float64, 4), make([]float64, 3), 0.01, 1, 0.02) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s length mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDotSpecialValuesPropagate(t *testing.T) {
	// NaN/Inf handling must match the naive loop too: the kernels are drop-in
	// replacements, not sanitisers.
	a := []float64{1, math.Inf(1), 3, 4, 5}
	b := []float64{1, 0, 3, 4, 5}
	if got := Dot(a, b); !math.IsNaN(got) {
		t.Fatalf("Inf*0 should poison the sum with NaN, got %v", got)
	}
}
