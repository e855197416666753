package mining

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"bolt/internal/stats"
)

func TestWeightedMean(t *testing.T) {
	u := []float64{1, 2, 3}
	sigma := []float64{1, 1, 1}
	if m := weightedMean(u, sigma); !almostEq(m, 2, 1e-12) {
		t.Fatalf("uniform weightedMean = %v, want 2", m)
	}
	sigma = []float64{0, 0, 1}
	if m := weightedMean(u, sigma); !almostEq(m, 3, 1e-12) {
		t.Fatalf("point-mass weightedMean = %v, want 3", m)
	}
}

func TestWeightedMeanZeroWeights(t *testing.T) {
	if weightedMean([]float64{1, 2}, []float64{0, 0}) != 0 {
		t.Fatal("zero-weight mean should be 0")
	}
}

func TestWeightedPearsonSelf(t *testing.T) {
	a := []float64{1, 5, 3, 2}
	sigma := []float64{4, 3, 2, 1}
	if r := WeightedPearson(a, a, sigma); !almostEq(r, 1, 1e-12) {
		t.Fatalf("self-correlation = %v, want 1", r)
	}
}

func TestWeightedPearsonAntiCorrelated(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{3, 2, 1}
	sigma := []float64{1, 1, 1}
	if r := WeightedPearson(a, b, sigma); !almostEq(r, -1, 1e-12) {
		t.Fatalf("anti-correlation = %v, want -1", r)
	}
}

func TestWeightedPearsonConstantVector(t *testing.T) {
	a := []float64{2, 2, 2}
	b := []float64{1, 5, 9}
	if r := WeightedPearson(a, b, []float64{1, 1, 1}); r != 0 {
		t.Fatalf("constant-vector correlation = %v, want 0", r)
	}
}

func TestWeightedPearsonMatchesUnweightedWithUniformSigma(t *testing.T) {
	rng := stats.NewRNG(41)
	a := make([]float64, 6)
	b := make([]float64, 6)
	ones := make([]float64, 6)
	for i := range a {
		a[i] = rng.Range(0, 10)
		b[i] = rng.Range(0, 10)
		ones[i] = 1
	}
	// The classic coefficient, from its textbook definition.
	ma, mb := stats.Mean(a), stats.Mean(b)
	sab, saa, sbb := 0.0, 0.0, 0.0
	for i := range a {
		sab += (a[i] - ma) * (b[i] - mb)
		saa += (a[i] - ma) * (a[i] - ma)
		sbb += (b[i] - mb) * (b[i] - mb)
	}
	if w, u := WeightedPearson(a, b, ones), sab/math.Sqrt(saa*sbb); !almostEq(w, u, 1e-12) {
		t.Fatalf("uniform-weight Pearson %v != classic %v", w, u)
	}
}

// TestSimilarityKernelMatchesWeightedPearsonBitExact holds Detect's split
// kernel — each operand's moments, then the covariance pass — and the
// pre-plan kernel TestMaskPlanMatchesReference uses as its oracle to the
// exported reference with ==, not a tolerance: every golden in the repo
// rests on them rounding identically.
func TestSimilarityKernelMatchesWeightedPearsonBitExact(t *testing.T) {
	rng := stats.NewRNG(4242)
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(12)
		a, b, sigma := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.Range(-100, 100), rng.Range(-100, 100)
		}
		switch trial % 5 {
		case 0: // zero-variance query
			for i := range a {
				a[i] = a[0]
			}
		case 1: // zero-variance profile
			for i := range b {
				b[i] = b[0]
			}
		}
		switch trial % 4 {
		case 0: // all-ones (the Unweighted arm)
			for i := range sigma {
				sigma[i] = 1
			}
		case 1: // floor weights
			for i := range sigma {
				sigma[i] = 1e-9
			}
		case 2: // trained weights under a boosted mask
			for i := range sigma {
				sigma[i] = rng.Range(1e-9, 50)
				if rng.Intn(3) == 0 {
					sigma[i] *= measuredBoost
				}
			}
		case 3: // some weights exactly zero, sometimes all of them
			for i := range sigma {
				if trial%8 == 3 && rng.Intn(2) == 0 {
					sigma[i] = rng.Range(0, 10)
				}
			}
		}
		want := WeightedPearson(a, b, sigma)
		den := 0.0
		for _, w := range sigma {
			den += w
		}
		if got := pearsonFrom(a, b, sigma, den, momentsOf(a, sigma, den), momentsOf(b, sigma, den)); got != want {
			t.Fatalf("trial %d: kernel %v != WeightedPearson %v\na=%v\nb=%v\nsigma=%v", trial, got, want, a, b, sigma)
		}
		if got := pearsonAgainst(a, b, sigma, momentsOfQuery(a, sigma)); got != want {
			t.Fatalf("trial %d: reference kernel %v != WeightedPearson %v\na=%v\nb=%v\nsigma=%v", trial, got, want, a, b, sigma)
		}
	}
}

func TestWeightedPearsonBounded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		sigma := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Range(-100, 100)
			b[i] = rng.Range(-100, 100)
			sigma[i] = rng.Range(0.01, 10)
		}
		r := WeightedPearson(a, b, sigma)
		return r >= -1 && r <= 1 && !math.IsNaN(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedPearsonSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 3 + rng.Intn(8)
		a := make([]float64, n)
		b := make([]float64, n)
		sigma := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Range(0, 100)
			b[i] = rng.Range(0, 100)
			sigma[i] = rng.Range(0.1, 5)
		}
		return almostEq(WeightedPearson(a, b, sigma), WeightedPearson(b, a, sigma), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if c := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); c != 0 {
		t.Fatalf("orthogonal cosine = %v, want 0", c)
	}
	if c := CosineSimilarity([]float64{2, 2}, []float64{1, 1}); !almostEq(c, 1, 1e-12) {
		t.Fatalf("parallel cosine = %v, want 1", c)
	}
	if c := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); c != 0 {
		t.Fatal("zero-vector cosine should be 0")
	}
}

// synthTrain builds a small synthetic training set with three clearly
// distinct resource archetypes plus within-class variation.
func synthTrain(rng *stats.RNG) []LabeledProfile {
	base := map[string][]float64{
		// 10 resources: L1i L1d L2 LLC memC memBW CPU netBW diskC diskBW
		"memcached": {90, 60, 30, 80, 40, 50, 35, 60, 0, 0},
		"hadoop":    {30, 40, 35, 40, 50, 45, 70, 40, 80, 75},
		"spark":     {40, 55, 40, 70, 85, 90, 60, 30, 20, 15},
	}
	var out []LabeledProfile
	for class, b := range base {
		for v := 0; v < 8; v++ {
			p := make([]float64, len(b))
			for i, x := range b {
				p[i] = stats.Clamp(x+rng.Norm(0, 4), 0, 100)
			}
			out = append(out, LabeledProfile{
				Label:    class + ":variant",
				Class:    class,
				Pressure: p,
			})
		}
	}
	return out
}

func TestCompleterFitsTraining(t *testing.T) {
	rng := stats.NewRNG(7)
	profiles := synthTrain(rng)
	rows := make([][]float64, len(profiles))
	for i, p := range profiles {
		rows[i] = p.Pressure
	}
	train := FromRows(rows)
	c := NewCompleter(train, CompletionConfig{Seed: 1})
	// Reconstruction error on training cells should be modest.
	sumErr, cells := 0.0, 0
	for i := 0; i < train.Rows; i++ {
		for j := 0; j < train.Cols; j++ {
			sumErr += math.Abs(c.Predict(i, j) - train.At(i, j))
			cells++
		}
	}
	if mae := sumErr / float64(cells); mae > 8 {
		t.Fatalf("training MAE = %v, want < 8", mae)
	}
}

func TestCompleterRecoversMissing(t *testing.T) {
	rng := stats.NewRNG(8)
	profiles := synthTrain(rng)
	rows := make([][]float64, len(profiles))
	for i, p := range profiles {
		rows[i] = p.Pressure
	}
	c := NewCompleter(FromRows(rows), CompletionConfig{Seed: 2})

	// Observe only three entries of a fresh memcached-like profile; the
	// completion should predict near-zero disk pressure (memcached's
	// signature) rather than the column mean.
	truth := []float64{88, 62, 28, 78, 42, 52, 33, 58, 2, 1}
	known := []bool{true, false, false, true, false, true, false, false, false, false}
	dense := complete(c, truth, known)
	for j, k := range known {
		if k && dense[j] != truth[j] {
			t.Fatalf("known entry %d overwritten: %v != %v", j, dense[j], truth[j])
		}
	}
	if dense[8] > 40 || dense[9] > 40 {
		t.Fatalf("disk pressure should be recovered as low: %v, %v", dense[8], dense[9])
	}
	for j, v := range dense {
		if v < 0 || v > 100 {
			t.Fatalf("completed value %d out of range: %v", j, v)
		}
	}
}

// allKnown is the mask of a fully observed n-resource vector.
func allKnown(n int) []bool {
	known := make([]bool, n)
	for j := range known {
		known[j] = true
	}
	return known
}

func TestRecommenderRanksCorrectClass(t *testing.T) {
	rng := stats.NewRNG(9)
	profiles := synthTrain(rng)
	rec := NewRecommender(profiles, RecommenderConfig{})

	victim := []float64{89, 58, 31, 79, 41, 49, 36, 61, 1, 0} // memcached-like
	res := rec.Detect(victim, allKnown(len(victim)))
	if res.Best().Class != "memcached" {
		t.Fatalf("best match class = %q, want memcached (matches: %v)",
			res.Best().Class, res.Matches[:3])
	}
	if !res.Confident() {
		t.Fatalf("clean signal should be confident: best sim %v", res.Best().Similarity)
	}
}

func TestRecommenderSparseDetection(t *testing.T) {
	rng := stats.NewRNG(10)
	profiles := synthTrain(rng)
	rec := NewRecommender(profiles, RecommenderConfig{})

	victim := []float64{42, 53, 38, 72, 83, 88, 62, 28, 18, 14} // spark-like
	known := make([]bool, 10)
	known[0], known[3], known[5] = true, true, true // L1i, LLC, memBW probes
	res := rec.Detect(victim, known)
	if res.Best().Class != "spark" {
		t.Fatalf("sparse detection class = %q, want spark", res.Best().Class)
	}
	if len(res.Pressure) != 10 {
		t.Fatal("completed pressure vector has wrong length")
	}
}

func TestRecommenderMatchesSorted(t *testing.T) {
	rng := stats.NewRNG(11)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	res := rec.Detect([]float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 50}, allKnown(10))
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].Similarity > res.Matches[i-1].Similarity {
			t.Fatal("matches not sorted by decreasing similarity")
		}
	}
}

// TestInsertRankedMatchesStableSort pins the bounded ranking against
// sort.SliceStable under the ranking rule: for every head size k the head
// holds exactly the sort's first min(k, n) keys. Similarities are drawn
// from a handful of values (with NaN and −0 among them) so most keys tie
// and the index order carries the proof of stability.
func TestInsertRankedMatchesStableSort(t *testing.T) {
	rng := stats.NewRNG(13)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(160)
		levels := 1 + rng.Intn(6)
		keys := make([]rankKey, n)
		for i := range keys {
			var sim float64
			switch l := rng.Intn(levels + 2); l {
			case levels:
				sim = math.NaN()
			case levels + 1:
				sim = math.Copysign(0, -1)
			default:
				sim = float64(l)/float64(levels) - 0.5
			}
			keys[i] = rankKey{sim: sim, idx: int32(i)}
		}
		want := append([]rankKey(nil), keys...)
		sort.SliceStable(want, func(a, b int) bool { return ranksAbove(want[a].sim, want[b].sim) })
		for _, k := range []int{1, 3, MatchesKept, n, n + 5} {
			top := make([]rankKey, min(k, n))
			c := 0
			for _, key := range keys {
				c = insertRanked(top, c, key)
			}
			if c != len(top) {
				t.Fatalf("trial %d (n=%d, k=%d): head holds %d keys, want %d", trial, n, k, c, len(top))
			}
			for i, got := range top {
				if got.idx != want[i].idx || math.Float64bits(got.sim) != math.Float64bits(want[i].sim) {
					t.Fatalf("trial %d (n=%d, k=%d, %d levels): position %d is %+v, stable sort has %+v",
						trial, n, k, levels, i, got, want[i])
				}
			}
		}
	}
}

// TestDetectMatchesFollowRanking checks the gather step end to end: the
// matches are the ranking's head — MatchesKept distinct training profiles,
// each carrying its own class, in decreasing similarity with ties in
// training order.
func TestDetectMatchesFollowRanking(t *testing.T) {
	train := synthTrain(stats.NewRNG(14))
	train = append(train, train[0], train[0]) // forced three-way tie
	index := map[string]int{}
	for i := range train {
		train[i].Label = fmt.Sprintf("p%02d", i)
		index[train[i].Label] = i
	}
	res := NewRecommender(train, RecommenderConfig{}).Detect(train[0].Pressure, allKnown(len(train[0].Pressure)))
	if len(res.Matches) != MatchesKept {
		t.Fatalf("got %d matches from %d profiles, want the top %d", len(res.Matches), len(train), MatchesKept)
	}
	seen := map[int]bool{}
	ties := 0
	for k, m := range res.Matches {
		i, ok := index[m.Label]
		if !ok || seen[i] || m.Class != train[i].Class {
			t.Fatalf("match %d (%q, class %q) is not a fresh training profile", k, m.Label, m.Class)
		}
		seen[i] = true
		if k == 0 {
			continue
		}
		prev := res.Matches[k-1]
		switch {
		case m.Similarity > prev.Similarity:
			t.Fatalf("match %d: similarity %v above its predecessor's %v", k, m.Similarity, prev.Similarity)
		case m.Similarity == prev.Similarity:
			ties++
			if index[prev.Label] > i {
				t.Fatalf("tie at %d: %q ranked before %q", k, prev.Label, m.Label)
			}
		}
	}
	if ties < 2 {
		t.Fatalf("%d ties ranked, the duplicated profile should give at least 2", ties)
	}
}

// noisyProfile returns base with N(0, sd) noise on every resource, clamped
// to [0, 100].
func noisyProfile(rng *stats.RNG, base []float64, sd float64) []float64 {
	p := make([]float64, len(base))
	for j, x := range base {
		p[j] = stats.Clamp(x+rng.Norm(0, sd), 0, 100)
	}
	return p
}

// trainingSet is a named training set of the differential corpus.
type trainingSet struct {
	name  string
	train []LabeledProfile
}

// prefixSets builds the differential corpus's training sets, over 10
// resources: a four-class catalog with duplicated profiles (heavy ties)
// and a dozen near-copies of its first profile, each closer than the last
// (so an exact query meets similarities ever nearer 1 at the head's
// boundary); a set anti-correlated with its first profile (so queries near
// it leave the head's last similarity negative); and three profiles, fewer
// than MatchesKept, the third the column mean under the first one's label
// (an exactly zero similarity).
func prefixSets(rng *stats.RNG) []trainingSet {
	bases := [][]float64{
		{90, 60, 30, 80, 40, 50, 35, 60, 0, 0},
		{30, 40, 35, 40, 50, 45, 70, 40, 80, 75},
		{40, 55, 40, 70, 85, 90, 60, 30, 20, 15},
		{10, 20, 95, 30, 60, 20, 10, 90, 50, 100},
	}
	var catalog []LabeledProfile
	for v := 0; v < 10; v++ {
		for c, b := range bases {
			catalog = append(catalog, LabeledProfile{
				Label: fmt.Sprintf("c%d:v%d", c, v), Class: fmt.Sprintf("c%d", c), Pressure: noisyProfile(rng, b, 8),
			})
		}
	}
	// Three more copies of profile 3 under its own label, two of profile 7
	// under new ones.
	catalog = append(catalog, catalog[3], catalog[3], catalog[3], catalog[7], catalog[7])
	catalog[len(catalog)-2].Label, catalog[len(catalog)-1].Label = "dup:a", "dup:b"
	for v := 0; v < 12; v++ {
		near := noisyProfile(rng, catalog[0].Pressure, math.Pow(10, -float64(v+1)))
		catalog = append(catalog, LabeledProfile{Label: fmt.Sprintf("near:%d", v), Class: "c0", Pressure: near})
	}

	x := []float64{95, 5, 95, 5, 95, 5, 95, 5, 95, 5}
	y := []float64{5, 95, 5, 95, 5, 95, 5, 95, 5, 95}
	anti := []LabeledProfile{{Label: "x", Class: "x", Pressure: x}}
	for v := 0; v < 30; v++ {
		anti = append(anti, LabeledProfile{Label: fmt.Sprintf("y:%d", v), Class: "y", Pressure: noisyProfile(rng, y, 0.5)})
	}

	mid := make([]float64, len(bases[0]))
	for j := range mid {
		mid[j] = (bases[0][j] + bases[1][j]) / 2
	}
	three := []LabeledProfile{
		{Label: "t0", Class: "t0", Pressure: bases[0]},
		{Label: "t1", Class: "t1", Pressure: bases[1]},
		{Label: "t0", Class: "t0", Pressure: mid},
	}
	return []trainingSet{{"catalog", catalog}, {"anti", anti}, {"three", three}}
}

// prefixCorpus is the differential corpus of TestDetectPrefixMatchesReference:
// every prefixSets training set under the default, Unweighted and PureCF
// configs, with 60 seeded queries each — near a training profile, near or
// exactly the first profile, uniform, and at the 0/100 clamp edges — over
// every mask size 0–10.
func prefixCorpus(visit func(set string, rec *Recommender, obs []float64, known []bool)) {
	rng := stats.NewRNG(26)
	configs := []struct {
		name string
		cfg  RecommenderConfig
	}{{"default", RecommenderConfig{}}, {"unweighted", RecommenderConfig{Unweighted: true}}, {"purecf", RecommenderConfig{PureCF: true}}}
	for _, set := range prefixSets(rng) {
		nres := len(set.train[0].Pressure)
		for _, cfg := range configs {
			rec := NewRecommender(set.train, cfg.cfg)
			for q := 0; q < 60; q++ {
				var obs []float64
				switch q % 5 {
				case 0:
					obs = noisyProfile(rng, set.train[rng.Intn(len(set.train))].Pressure, 5)
				case 1:
					obs = noisyProfile(rng, set.train[0].Pressure, 3)
				case 4:
					obs = noisyProfile(rng, set.train[0].Pressure, 0)
				case 2:
					obs = make([]float64, nres)
					for j := range obs {
						obs[j] = rng.Range(0, 100)
					}
				case 3:
					obs = make([]float64, nres)
					for j := range obs {
						obs[j] = [...]float64{0, 100, rng.Range(0, 100)}[rng.Intn(3)]
					}
				}
				known := make([]bool, nres)
				for _, j := range rng.Perm(nres)[:q%(nres+1)] {
					known[j] = true
				}
				visit(set.name+"/"+cfg.name, rec, obs, known)
			}
		}
	}
}

// TestDetectPrefixMatchesReference holds Detect to the full ranking it
// replaced: its matches are the reference's first min(MatchesKept, n),
// similarity compared with ==, and the completed pressure is identical.
// It also checks the corpus reaches both sides of the proximity skip: a
// negative last kept similarity, and negative similarities skipped against
// a non-negative one.
func TestDetectPrefixMatchesReference(t *testing.T) {
	queries, negThr, negSkipped := 0, 0, 0
	prefixCorpus(func(set string, rec *Recommender, obs []float64, known []bool) {
		queries++
		got, want := rec.Detect(obs, known), rec.detectReference(obs, known)
		k := min(MatchesKept, len(want.Matches))
		if len(got.Matches) != k {
			t.Fatalf("%s query %d: %d matches, want %d", set, queries, len(got.Matches), k)
		}
		for i := range got.Matches {
			if got.Matches[i] != want.Matches[i] {
				t.Fatalf("%s query %d: match %d is %+v, reference has %+v", set, queries, i, got.Matches[i], want.Matches[i])
			}
		}
		for j := range want.Pressure {
			if got.Pressure[j] != want.Pressure[j] {
				t.Fatalf("%s query %d: pressure[%d] %v, reference %v", set, queries, j, got.Pressure[j], want.Pressure[j])
			}
		}
		if rec.cfg.PureCF || len(want.Matches) <= k {
			return
		}
		if thr := want.Matches[k-1].Similarity; thr < 0 {
			negThr++
		} else if want.Matches[len(want.Matches)-1].Similarity < 0 {
			negSkipped++
		}
	})
	if queries < 500 {
		t.Fatalf("corpus has %d queries, want at least 500", queries)
	}
	if negThr == 0 || negSkipped == 0 {
		t.Fatalf("corpus missed a skip branch: %d queries with a negative threshold, %d skipping negative similarities", negThr, negSkipped)
	}
}

// TestLabelSimilarityMatchesRankedScan holds LabelSimilarity to the scan
// Fig. 5 used to make over the full ranking — the first nonzero similarity
// carrying the label, else the last zero — for unique, duplicated and
// absent labels, compared by bits.
func TestLabelSimilarityMatchesRankedScan(t *testing.T) {
	scan := func(matches []Match, label string) float64 {
		sim := 0.0
		for _, m := range matches {
			if m.Label == label && sim == 0 {
				sim = m.Similarity
			}
		}
		return sim
	}
	prefixCorpus(func(set string, rec *Recommender, obs []float64, known []bool) {
		ranking := rec.detectReference(obs, known).Matches
		for _, label := range []string{"c0:v0", "c1:v3", "c3:v0", "dup:a", "near:5", "x", "y:7", "t0", "t1", "absent"} {
			got, want := rec.LabelSimilarity(obs, known, label), scan(ranking, label)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: LabelSimilarity(%q) = %v, ranked scan reads %v", set, label, got, want)
			}
		}
	})
}

// TestDetectNaNRanksLast pins the ranking rule for NaN similarities: a NaN
// ranks below every number, ties in training order. A NaN in a known
// observed entry makes every similarity NaN, and the head is then the first
// profiles in training order; with NaN only in some profiles, the numbers
// lead and the NaNs follow in training order.
func TestDetectNaNRanksLast(t *testing.T) {
	train := prefixSets(stats.NewRNG(26))[0].train
	obs := []float64{80, 55, 30, 70, 40, 50, 35, 55, 2, 1}
	known := []bool{true, false, false, true, false, true, false, false, false, false}

	t.Run("all", func(t *testing.T) {
		nan := append([]float64(nil), obs...)
		nan[0] = math.NaN()
		res := NewRecommender(train, RecommenderConfig{}).Detect(nan, known)
		for k, m := range res.Matches {
			if m.Label != train[k].Label || !math.IsNaN(m.Similarity) {
				t.Fatalf("match %d is %+v, want %q with a NaN similarity", k, m, train[k].Label)
			}
		}
	})

	t.Run("mixed", func(t *testing.T) {
		for _, nanCount := range []int{5, len(train) - 3} {
			// Poison the raw pressure of the nanCount profiles the query
			// matches best: only their proximity factor reads it, so their
			// similarity alone turns NaN.
			own := make([]LabeledProfile, len(train))
			for i, p := range train {
				own[i] = LabeledProfile{Label: fmt.Sprintf("p%02d", i), Class: p.Class, Pressure: append([]float64(nil), p.Pressure...)}
			}
			rec := NewRecommender(own, RecommenderConfig{})
			ranking := rec.detectReference(obs, known).Matches
			index := map[string]int{}
			for i, p := range own {
				index[p.Label] = i
			}
			poisoned := map[int]bool{}
			for _, m := range ranking[:nanCount] {
				i := index[m.Label]
				poisoned[i] = true
				own[i].Pressure[2] = math.NaN()
			}
			var want []int
			for _, m := range ranking {
				if i := index[m.Label]; !poisoned[i] {
					want = append(want, i)
				}
			}
			for i := range own {
				if poisoned[i] {
					want = append(want, i)
				}
			}
			res := rec.Detect(obs, known)
			if len(res.Matches) != MatchesKept {
				t.Fatalf("%d poisoned: %d matches, want %d", nanCount, len(res.Matches), MatchesKept)
			}
			for k, m := range res.Matches {
				i := want[k]
				if m.Label != own[i].Label || math.IsNaN(m.Similarity) != poisoned[i] {
					t.Fatalf("%d poisoned: match %d is %+v, want %q (NaN %v)", nanCount, k, m, own[i].Label, poisoned[i])
				}
			}
			if math.IsNaN(res.Best().Similarity) {
				t.Fatalf("%d poisoned: Best() is a NaN match %+v", nanCount, res.Best())
			}
		}
	})
}

func TestRecommenderPureCFHasNoLabels(t *testing.T) {
	rng := stats.NewRNG(12)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{PureCF: true})
	res := rec.Detect([]float64{89, 58, 31, 79, 41, 49, 36, 61, 1, 0}, allKnown(10))
	for _, m := range res.Matches {
		if m.Label != "" {
			t.Fatal("pure CF should not assign labels")
		}
	}
}

func TestRecommenderEnergyRankRespondsToConfig(t *testing.T) {
	rng := stats.NewRNG(13)
	profiles := synthTrain(rng)
	low := NewRecommender(profiles, RecommenderConfig{EnergyFraction: 0.5})
	high := NewRecommender(profiles, RecommenderConfig{EnergyFraction: 0.9999})
	if low.Rank() > high.Rank() {
		t.Fatalf("rank should grow with energy fraction: %d vs %d", low.Rank(), high.Rank())
	}
}

func TestRecommenderResourceValueNormalised(t *testing.T) {
	rng := stats.NewRNG(14)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	val := rec.ResourceValue()
	if len(val) != 10 {
		t.Fatal("ResourceValue length wrong")
	}
	maxSeen := 0.0
	for _, v := range val {
		if v < 0 || v > 1 {
			t.Fatalf("resource value out of [0,1]: %v", v)
		}
		if v > maxSeen {
			maxSeen = v
		}
	}
	if !almostEq(maxSeen, 1, 1e-12) {
		t.Fatalf("max resource value = %v, want 1", maxSeen)
	}
}

func TestRecommenderEmptyTrainingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty training set did not panic")
		}
	}()
	NewRecommender(nil, RecommenderConfig{})
}

func TestResultBestEmpty(t *testing.T) {
	r := &Result{}
	if r.Best().Label != "" || r.Confident() {
		t.Fatal("empty result should have zero Best and not be confident")
	}
}
