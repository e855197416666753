package mining

import (
	"math"
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

// TestFoldSolve6MatchesGenericBitExact pins the rank-6 register-resident
// solve to the generic foldSolve it specialises: same factor bits with the
// convergence gate on and off, from one known column up to all of them.
func TestFoldSolve6MatchesGenericBitExact(t *testing.T) {
	const n, r = 10, 6
	const lr, reg = 0.01, 0.002
	rng := stats.NewRNG(15)
	qdata := make([]float64, n*r)
	for i := range qdata {
		qdata[i] = rng.Norm(0, 0.5)
	}
	for _, fixed := range []bool{false, true} {
		for nk := 0; nk <= n; nk++ {
			observed := make([]float64, n)
			for j := range observed {
				observed[j] = rng.Range(0, 100)
			}
			kidx := rng.Perm(n)[:nk]
			got, want := make([]float64, r), make([]float64, r)
			foldSolve6(got, qdata, kidx, observed, lr, reg, fixed)
			foldSolve(want, make([]float64, r), qdata, kidx, observed, lr, reg, fixed)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("fixed=%v known=%d k=%d: foldSolve6=%v, foldSolve=%v", fixed, nk, k, got[k], want[k])
				}
			}
		}
	}
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
