package mining

import (
	"math"
	"testing"
	"testing/quick"

	"bolt/internal/stats"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At misbehaved")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatal("FromRows misbehaved")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowColCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row returned a live view, want a copy")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 {
		t.Fatal("transpose wrong")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestCloneIndependent(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("Norm2 wrong")
	}
}

func TestSVDReconstructs(t *testing.T) {
	rng := stats.NewRNG(1)
	m := NewMatrix(8, 5)
	for i := range m.Data {
		m.Data[i] = rng.Range(0, 100)
	}
	svd := ComputeSVD(m)
	rec := svd.Reconstruct()
	for i := range m.Data {
		if !almostEq(m.Data[i], rec.Data[i], 1e-6) {
			t.Fatalf("reconstruction differs at %d: %v vs %v", i, m.Data[i], rec.Data[i])
		}
	}
}

func TestSVDOrthonormalV(t *testing.T) {
	rng := stats.NewRNG(2)
	m := NewMatrix(10, 4)
	for i := range m.Data {
		m.Data[i] = rng.Range(-1, 1)
	}
	svd := ComputeSVD(m)
	vtv := svd.V.T().Mul(svd.V)
	for i := 0; i < vtv.Rows; i++ {
		for j := 0; j < vtv.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(vtv.At(i, j), want, 1e-8) {
				t.Fatalf("VᵀV(%d,%d) = %v, want %v", i, j, vtv.At(i, j), want)
			}
		}
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	rng := stats.NewRNG(3)
	m := NewMatrix(12, 6)
	for i := range m.Data {
		m.Data[i] = rng.Range(0, 10)
	}
	svd := ComputeSVD(m)
	for i := 1; i < len(svd.Sigma); i++ {
		if svd.Sigma[i] > svd.Sigma[i-1] {
			t.Fatalf("singular values not decreasing: %v", svd.Sigma)
		}
	}
}

func TestSVDKnownRankOne(t *testing.T) {
	// A = outer product → exactly one nonzero singular value.
	u := []float64{1, 2, 3}
	v := []float64{4, 5}
	m := NewMatrix(3, 2)
	for i := range u {
		for j := range v {
			m.Set(i, j, u[i]*v[j])
		}
	}
	svd := ComputeSVD(m)
	if len(svd.Sigma) != 1 {
		t.Fatalf("rank-1 matrix produced %d singular values: %v", len(svd.Sigma), svd.Sigma)
	}
	want := Norm2(u) * Norm2(v)
	if !almostEq(svd.Sigma[0], want, 1e-9) {
		t.Fatalf("σ₀ = %v, want %v", svd.Sigma[0], want)
	}
}

func TestSVDDiagonal(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 4}})
	svd := ComputeSVD(m)
	if len(svd.Sigma) != 2 || !almostEq(svd.Sigma[0], 4, 1e-9) || !almostEq(svd.Sigma[1], 3, 1e-9) {
		t.Fatalf("Sigma = %v, want [4 3]", svd.Sigma)
	}
}

func TestSVDEmpty(t *testing.T) {
	svd := ComputeSVD(NewMatrix(0, 0))
	if len(svd.Sigma) != 0 {
		t.Fatal("empty SVD should have no singular values")
	}
}

func TestEnergyRank(t *testing.T) {
	s := &SVD{Sigma: []float64{10, 3, 1}} // energies 100, 9, 1 of 110
	if r := s.EnergyRank(0.9); r != 1 {
		t.Fatalf("EnergyRank(0.9) = %d, want 1 (100/110 = 0.909)", r)
	}
	if r := s.EnergyRank(0.95); r != 2 {
		t.Fatalf("EnergyRank(0.95) = %d, want 2", r)
	}
	if r := s.EnergyRank(1.0); r != 3 {
		t.Fatalf("EnergyRank(1.0) = %d, want 3", r)
	}
}

func TestEnergyRankEdge(t *testing.T) {
	if (&SVD{}).EnergyRank(0.9) != 0 {
		t.Fatal("empty SVD EnergyRank should be 0")
	}
	if (&SVD{Sigma: []float64{0}}).EnergyRank(0.9) != 1 {
		t.Fatal("all-zero Sigma should still return rank 1")
	}
}

func TestTruncateAndProject(t *testing.T) {
	rng := stats.NewRNG(5)
	m := NewMatrix(20, 6)
	for i := range m.Data {
		m.Data[i] = rng.Range(0, 100)
	}
	svd := ComputeSVD(m)
	tr := svd.Truncate(3)
	if len(tr.Sigma) != 3 || tr.U.Cols != 3 || tr.V.Cols != 3 {
		t.Fatal("truncation shape wrong")
	}
	// Projecting a training row into full-rank concept space must recover
	// the corresponding row of U.
	u := svd.Project(m.Row(4))
	for k := range u {
		if !almostEq(u[k], svd.U.At(4, k), 1e-8) {
			t.Fatalf("Project differs from U at concept %d: %v vs %v", k, u[k], svd.U.At(4, k))
		}
	}
}

func TestTruncateBeyondRank(t *testing.T) {
	m := FromRows([][]float64{{1, 0}, {0, 1}})
	svd := ComputeSVD(m)
	tr := svd.Truncate(99)
	if len(tr.Sigma) != len(svd.Sigma) {
		t.Fatal("Truncate beyond rank should keep all values")
	}
}

// Property: SVD reconstruction error is tiny for random matrices.
func TestSVDReconstructionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		rows := 3 + rng.Intn(10)
		cols := 2 + rng.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.Range(-50, 50)
		}
		rec := ComputeSVD(m).Reconstruct()
		diff := 0.0
		for i := range m.Data {
			d := m.Data[i] - rec.Data[i]
			diff += d * d
		}
		return math.Sqrt(diff) <= 1e-6*(1+m.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
