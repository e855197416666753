package mining_test

import (
	"fmt"

	"bolt/internal/mining"
)

// ExampleRecommender shows the full §3.2 pipeline on a toy training set:
// three labelled workloads, a sparse two-resource observation, completion
// of the missing entries, and the head of the similarity ranking.
func ExampleRecommender() {
	profiles := []mining.LabeledProfile{
		{Label: "kv-store", Class: "kv", Pressure: []float64{90, 60, 30, 80, 40, 50, 35, 60, 0, 0}},
		{Label: "analytics", Class: "batch", Pressure: []float64{30, 40, 35, 40, 50, 45, 70, 40, 80, 75}},
		{Label: "in-memory", Class: "mem", Pressure: []float64{40, 55, 40, 70, 85, 90, 60, 30, 20, 15}},
	}
	rec := mining.NewRecommender(profiles, mining.RecommenderConfig{})

	// The adversary measured only the LLC (index 3) and disk bandwidth
	// (index 9); everything else is unknown.
	observed := make([]float64, 10)
	known := make([]bool, 10)
	observed[3], known[3] = 78, true
	observed[9], known[9] = 2, true

	result := rec.Detect(observed, known)
	fmt.Printf("best match: %s\n", result.Best().Label)
	fmt.Printf("confident: %v\n", result.Confident())
	// Output:
	// best match: kv-store
	// confident: true
}

func ExampleWeightedPearson() {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8} // same shape, double the scale
	uniform := []float64{1, 1, 1, 1}
	fmt.Printf("%.2f\n", mining.WeightedPearson(a, b, uniform))
	// Output:
	// 1.00
}

func ExampleComputeSVD() {
	m := mining.FromRows([][]float64{
		{3, 0},
		{0, 4},
	})
	svd := mining.ComputeSVD(m)
	fmt.Printf("singular values: %.0f %.0f\n", svd.Sigma[0], svd.Sigma[1])
	fmt.Printf("rank at 90%% energy: %d\n", svd.EnergyRank(0.9))
	// Output:
	// singular values: 4 3
	// rank at 90% energy: 2
}
