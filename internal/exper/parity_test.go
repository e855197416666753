package exper

import (
	"bytes"
	"runtime"
	"testing"

	"bolt/internal/mining"
)

// TestSuiteParityPowerVsSweepFoldIn is the whole-suite differential test of
// the matrix-power fold-in: running the entire experiment suite with the
// fold-in iterate computed by matrix powers (the default) must emit
// byte-for-byte the output of the sequential 2000-sweep solve. The two agree
// to ~1e-12 of the factor row — orders of magnitude below anything the
// reports resolve — and the two experiments that are sensitive at machine
// precision (the DoS planners) pin FixedFoldIn explicitly, so the suites
// must agree exactly. A failure here means either the kernel drifted from
// the sweeps or a new experiment started consuming raw completed-pressure
// floats and needs the same pinning.
func TestSuiteParityPowerVsSweepFoldIn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	const seed = 42
	parallel := runtime.GOMAXPROCS(0)

	render := func() []byte {
		results := Run(All(), seed, parallel)
		reports := make([]*Report, len(results))
		for i, r := range results {
			reports[i] = r.Report
		}
		var buf bytes.Buffer
		if err := WriteAllJSON(&buf, seed, reports); err != nil {
			t.Fatalf("WriteAllJSON: %v", err)
		}
		return buf.Bytes()
	}

	power := render()
	mining.SetForceFixedFoldIn(true)
	defer mining.SetForceFixedFoldIn(false)
	sweeps := render()

	if !bytes.Equal(power, sweeps) {
		i := 0
		for i < len(power) && i < len(sweeps) && power[i] == sweeps[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		hiP, hiS := i+60, i+60
		if hiP > len(power) {
			hiP = len(power)
		}
		if hiS > len(sweeps) {
			hiS = len(sweeps)
		}
		t.Fatalf("suite output diverged at byte %d:\n  matrix powers:     …%s…\n  sequential sweeps: …%s…",
			i, power[lo:hiP], sweeps[lo:hiS])
	}
}
