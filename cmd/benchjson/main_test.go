package main

import (
	"strings"
	"testing"
)

func TestParseLineStandard(t *testing.T) {
	r, ok := parseLine("BenchmarkSimTick-8   20000   1513 ns/op   24 B/op   3 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkSimTick" {
		t.Fatalf("name = %q, want cpu suffix stripped", r.Name)
	}
	if r.Iterations != 20000 || r.NsPerOp != 1513 || r.BytesPerOp != 24 || r.AllocsPerOp != 3 {
		t.Fatalf("parsed %+v", r)
	}
	if len(r.Metrics) != 0 {
		t.Fatalf("standard units leaked into metrics: %v", r.Metrics)
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	r, ok := parseLine("BenchmarkBoltload/inproc/w2/b64/c16\t 1048576\t    1180 ns/op\t  846000 qps\t    41.0 p50-us\t    55.5 p90-us\t    79.8 p99-us\t   302.2 max-us\t    12 shed")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkBoltload/inproc/w2/b64/c16" {
		t.Fatalf("name = %q", r.Name)
	}
	if r.Iterations != 1048576 || r.NsPerOp != 1180 {
		t.Fatalf("parsed %+v", r)
	}
	want := map[string]float64{
		"qps": 846000, "p50-us": 41.0, "p90-us": 55.5,
		"p99-us": 79.8, "max-us": 302.2, "shed": 12,
	}
	if len(r.Metrics) != len(want) {
		t.Fatalf("metrics = %v, want %v", r.Metrics, want)
	}
	for k, v := range want {
		if r.Metrics[k] != v {
			t.Fatalf("metrics[%q] = %v, want %v", k, r.Metrics[k], v)
		}
	}
}

func TestParseLineSubBenchmarkKeepsSlashes(t *testing.T) {
	// Only a trailing -N (the GOMAXPROCS suffix) is stripped; a -N inside a
	// sub-benchmark path is part of the name.
	r, ok := parseLine("BenchmarkFleetTick/servers-16-8  100  34000 ns/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkFleetTick/servers-16" {
		t.Fatalf("name = %q, want BenchmarkFleetTick/servers-16", r.Name)
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",                  // too few fields
		"BenchmarkX abc 1 ns/op junk", // non-numeric iterations
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("malformed line %q parsed", line)
		}
	}
	// A non-numeric custom metric value is skipped, not fatal.
	r, ok := parseLine("BenchmarkX 10 5 ns/op abc qps 7 shed")
	if !ok || len(r.Metrics) != 1 || r.Metrics["shed"] != 7 {
		t.Fatalf("parsed %+v ok=%v, want shed=7 only", r, ok)
	}
}

func TestParseReport(t *testing.T) {
	out := strings.NewReader(strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: bolt/cmd/boltload",
		"cpu: Imaginary CPU @ 2.0GHz",
		"BenchmarkBoltload/inproc/w1/b1/c4\t2000\t43184 ns/op\t23157 qps",
		"BenchmarkBoltload/inproc/w1/b64/c4\t2000\t40605 ns/op\t24628 qps",
		"PASS",
	}, "\n"))
	rep := parseReport(out)
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || rep.CPU != "Imaginary CPU @ 2.0GHz" {
		t.Fatalf("headers: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	if rep.Benchmarks[1].Metrics["qps"] != 24628 {
		t.Fatalf("benchmarks[1] = %+v", rep.Benchmarks[1])
	}
}

func TestMergeReportsReplacesAndPreserves(t *testing.T) {
	old := Report{
		Bench:     "BenchmarkA|BenchmarkB",
		BenchTime: "200x",
		Benchmarks: []Result{
			{Name: "BenchmarkA", NsPerOp: 1},
			{Name: "BenchmarkB", NsPerOp: 2, Metrics: map[string]float64{"qps": 5}},
		},
	}
	fresh := Report{
		Bench:      "BenchmarkB",
		BenchTime:  "3x",
		Benchmarks: []Result{{Name: "BenchmarkB", NsPerOp: 9}},
	}
	merged, err := mergeReports(old, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Benchmarks) != 2 {
		t.Fatalf("merged %d benchmarks, want 2", len(merged.Benchmarks))
	}
	if merged.Benchmarks[0].Name != "BenchmarkA" || merged.Benchmarks[1].NsPerOp != 9 {
		t.Fatalf("merged = %+v", merged.Benchmarks)
	}
	if merged.Bench != "BenchmarkA|BenchmarkB" || merged.BenchTime != "200x,3x" {
		t.Fatalf("labels: bench=%q benchtime=%q", merged.Bench, merged.BenchTime)
	}
}

// TestMergeReportsLabels pins the header merge: re-appending a bench the
// report already names keeps the header as it was, a new bench or
// benchtime is added once, in first-seen order, and a header a repeated
// merge has already grown is folded back.
func TestMergeReportsLabels(t *testing.T) {
	for _, tc := range []struct {
		name                string
		old, fresh          [2]string // bench, benchtime
		wantBench, wantTime string
	}{
		{"re-append", [2]string{"BenchmarkFleetTick|BenchmarkCampaign", "20x"}, [2]string{"BenchmarkCampaign", "20x"}, "BenchmarkFleetTick|BenchmarkCampaign", "20x"},
		{"re-append first", [2]string{"BenchmarkFleetTick|BenchmarkCampaign", "20x"}, [2]string{"BenchmarkFleetTick", "20x"}, "BenchmarkFleetTick|BenchmarkCampaign", "20x"},
		{"new bench", [2]string{"BenchmarkFleetTick", "20x"}, [2]string{"BenchmarkCampaign", "20x"}, "BenchmarkFleetTick|BenchmarkCampaign", "20x"},
		{"new benchtime", [2]string{"BenchmarkSimTick", "200x"}, [2]string{"BenchmarkSuite", "3x"}, "BenchmarkSimTick|BenchmarkSuite", "200x,3x"},
		{"grown header", [2]string{"BenchmarkFleetTick|BenchmarkCampaign|BenchmarkCampaign", "20x,20x,20x"}, [2]string{"BenchmarkCampaign", "20x"}, "BenchmarkFleetTick|BenchmarkCampaign", "20x"},
		{"exec rows carry no benchtime", [2]string{"boltload", ""}, [2]string{"boltload", ""}, "boltload", ""},
	} {
		old := Report{Bench: tc.old[0], BenchTime: tc.old[1], Benchmarks: []Result{{Name: "Old"}}}
		fresh := Report{Bench: tc.fresh[0], BenchTime: tc.fresh[1], Benchmarks: []Result{{Name: "Fresh"}}}
		merged, err := mergeReports(old, fresh)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if merged.Bench != tc.wantBench || merged.BenchTime != tc.wantTime {
			t.Fatalf("%s: bench=%q benchtime=%q, want %q and %q", tc.name, merged.Bench, merged.BenchTime, tc.wantBench, tc.wantTime)
		}
	}
}

func TestMergeReportsRejectsDuplicates(t *testing.T) {
	old := Report{Benchmarks: []Result{
		{Name: "BenchmarkA"}, {Name: "BenchmarkA"},
	}}
	fresh := Report{Benchmarks: []Result{{Name: "BenchmarkB"}}}
	if _, err := mergeReports(old, fresh); err == nil {
		t.Fatal("a pre-existing duplicate survived the merge")
	}
}

func TestFirstDuplicate(t *testing.T) {
	if d := firstDuplicate([]Result{{Name: "A"}, {Name: "B"}}); d != "" {
		t.Fatalf("false duplicate %q", d)
	}
	if d := firstDuplicate([]Result{{Name: "A"}, {Name: "B"}, {Name: "A"}}); d != "A" {
		t.Fatalf("duplicate = %q, want A", d)
	}
}

func TestCollapseSingleRunRejectsRepeats(t *testing.T) {
	got, err := collapse([]Result{{Name: "A", NsPerOp: 1}, {Name: "B", NsPerOp: 2}}, 1)
	if err != nil || len(got) != 2 || got[0].Samples != 0 || got[1].NsPerOp != 2 {
		t.Fatalf("collapse(count 1) = %+v, %v; want the input unchanged", got, err)
	}
	if _, err := collapse([]Result{{Name: "A"}, {Name: "B"}, {Name: "A"}}, 1); err == nil {
		t.Fatal("a name appearing twice in a -count 1 run was accepted")
	}
	if _, err := collapse([]Result{{Name: "A"}, {Name: "A"}, {Name: "B"}}, 2); err == nil {
		t.Fatal("a name with fewer results than -count was accepted")
	}
}

func TestCollapseMedianAndQuartiles(t *testing.T) {
	var runs []Result
	for _, ns := range []float64{50, 10, 40, 20, 30} { // unsorted on purpose
		runs = append(runs, Result{Name: "B", Iterations: 5, NsPerOp: ns, AllocsPerOp: int64(ns / 10),
			Metrics: map[string]float64{"ticks/s": 1000 / ns}})
		runs = append(runs, Result{Name: "A", Iterations: 5, NsPerOp: 7})
	}
	got, err := collapse(runs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "B" || got[1].Name != "A" {
		t.Fatalf("collapsed to %+v, want B then A (first-appearance order)", got)
	}
	b := got[0]
	if b.NsPerOp != 30 || b.NsPerOpQ1 != 20 || b.NsPerOpQ3 != 40 || b.Samples != 5 {
		t.Fatalf("B = %+v, want median 30, quartiles 20/40, 5 samples", b)
	}
	if b.AllocsPerOp != 3 || b.Metrics["ticks/s"] != 1000.0/30 {
		t.Fatalf("B allocs %d metrics %v, want the medians 3 and %v", b.AllocsPerOp, b.Metrics, 1000.0/30)
	}
	if got[1].NsPerOp != 7 || got[1].NsPerOpQ1 != 7 || got[1].NsPerOpQ3 != 7 {
		t.Fatalf("A = %+v, want 7 throughout", got[1])
	}
}

// TestCheckFlags: a -count below 1, a -count in -exec mode and -exec with
// no command are refused before any command runs (exit 2).
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		count int
		exec  bool
		args  []string
		ok    bool
	}{
		{0, false, nil, false},
		{-1, false, nil, false},
		{2, true, []string{"true"}, false},
		{1, true, nil, false},
		{1, false, nil, true},
		{5, false, nil, true},
		{1, true, []string{"true"}, true},
	} {
		if err := checkFlags(c.count, c.exec, c.args); (err == nil) != c.ok {
			t.Errorf("-count %d -exec=%v %q: err %v, want accepted=%v", c.count, c.exec, c.args, err, c.ok)
		}
	}
}
