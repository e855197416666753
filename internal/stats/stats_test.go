package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Uniform(t *testing.T) {
	r := NewRNG(9)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestRNGNorm(t *testing.T) {
	r := NewRNG(11)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm(10, 2)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.05 {
		t.Fatalf("normal mean %v, want ~10", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.05 {
		t.Fatalf("normal stddev %v, want ~2", s)
	}
}

func TestRNGExp(t *testing.T) {
	r := NewRNG(13)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exp(5)
		if x < 0 {
			t.Fatalf("Exp returned negative %v", x)
		}
		sum += x
	}
	if m := sum / float64(n); math.Abs(m-5) > 0.1 {
		t.Fatalf("exponential mean %v, want ~5", m)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(17)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(19)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGChooseWeighted(t *testing.T) {
	r := NewRNG(23)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[r.Choose([]float64{1, 2, 7})]++
	}
	// Expect roughly 10% / 20% / 70%.
	if f := float64(counts[2]) / 30000; math.Abs(f-0.7) > 0.02 {
		t.Fatalf("weight-7 index chosen %v of the time, want ~0.7", f)
	}
}

func TestRNGChooseAllZero(t *testing.T) {
	r := NewRNG(29)
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		seen[r.Choose([]float64{0, 0, 0})] = true
	}
	if len(seen) != 3 {
		t.Fatalf("zero-weight Choose not uniform: saw %d indices", len(seen))
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	r := NewRNG(31)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split generators produced identical first values")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); s != 2 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty-slice statistics should be zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileOrderInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p50 := Percentile(xs, 50)
		rev := make([]float64, len(xs))
		for i, v := range xs {
			rev[len(xs)-1-i] = v
		}
		return Percentile(rev, 50) == p50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotone(t *testing.T) {
	r := NewRNG(37)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 5 {
		v := Percentile(xs, p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestClamp(t *testing.T) {
	if Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 || Clamp(5, 0, 10) != 5 {
		t.Fatal("Clamp misbehaved")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("Min/Max misbehaved")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be infinities")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Add("a")
	c.Add("a")
	c.AddN("b", 3)
	if c.Count("a") != 2 || c.Count("b") != 3 {
		t.Fatal("Counter tallies wrong")
	}
	if s := c.Share("a"); math.Abs(s-40) > 1e-9 {
		t.Fatalf("Share(a) = %v, want 40", s)
	}
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestCounterEmptyShare(t *testing.T) {
	if NewCounter().Share("x") != 0 {
		t.Fatal("empty counter share should be 0")
	}
}

// TestSortedKeys: keys come back ascending whatever the map's iteration
// order; 64 keys make an unsorted visit order all but certain.
func TestSortedKeys(t *testing.T) {
	many := map[int]int{}
	var manyWant []int
	for k := 0; k < 64; k++ {
		many[63-k] = k
		manyWant = append(manyWant, k)
	}
	cases := []struct {
		name      string
		got, want any
	}{
		{"nil map", SortedKeys(map[string]int(nil)), []string{}},
		{"int keys", SortedKeys(map[int]bool{3: true, -1: false, 20: true, 0: true}), []int{-1, 0, 3, 20}},
		{"64 int keys", SortedKeys(many), manyWant},
		{"string keys", SortedKeys(map[string]float64{"b": 1, "a": 2, "ab": 3, "B": 4}), []string{"B", "a", "ab", "b"}},
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: SortedKeys = %v, want %v", c.name, c.got, c.want)
		}
	}
}
