package exper

import (
	"fmt"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/probe"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// faultRates is the sweep of headline fault rates: dense in the sub-20%
// region where the bar is "no accuracy cliff", then 30-75% where the
// pipeline visibly degrades and the unknown mechanism takes over.
var faultRates = []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50, 0.75}

// FaultRate measures how detection degrades as the fault plane's headline
// rate sweeps from 0 to 30%: the §3.4 controlled experiment re-run with
// sample dropouts, sensor corruption, victim churn, and transient probe
// failures injected into every profiling pass — the measurement
// pathologies Bolt's real-cloud evaluation absorbs but the clean simulator
// never produced. Per rate it reports accuracy, the fraction of hosts that
// degraded to "unknown", and the fraction that mislabeled; graceful
// degradation means accuracy falls smoothly (no cliff below a 20% rate)
// while the loss is absorbed by "unknown" rather than wrong labels.
//
// The rate-0 row runs with no fault plane at all: a disabled config builds
// none and splits no stream, so its adversaries are the same program every
// other experiment's are.
func FaultRate(seed uint64) *Report {
	rep := newReport("faultrate", "Detection accuracy vs measurement-fault rate")
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})

	tb := trace.NewTable(
		"Graceful degradation under injected measurement faults (20 servers, 54 victims, all four classes)",
		"fault rate", "accuracy", "unknown", "mislabeled", "mean confidence", "mean ticks", "faults injected")
	n := len(faultRates)
	xs := make([]float64, 0, n)
	accs := make([]float64, 0, n)
	unks := make([]float64, 0, n)
	miss := make([]float64, 0, n)
	// Rates are independent runs (each RunControlled derives every stream
	// from cfg.Seed), so the sweep fans out on the episode pool and the
	// table/figure rows are assembled from the slots in sweep order.
	results := make([]*ControlledResult, n)
	forEachEpisode(n, func(i int) {
		results[i] = RunControlled(ControlledConfig{
			Seed:     seed,
			Servers:  20,
			Victims:  54,
			Detector: det,
			ProbeCfg: probe.Config{Faults: fault.Config{Rate: faultRates[i]}},
		})
	})
	for ri, rate := range faultRates {
		res := results[ri]
		correct, unknown, wrong := 0, 0, 0
		confSum, tickSum := 0.0, 0.0
		for _, r := range res.Records {
			confSum += r.Confidence
			tickSum += float64(r.Ticks)
			switch {
			case r.Correct():
				correct++
			case r.Unknown:
				unknown++
			default:
				wrong++
			}
		}
		total := len(res.Records)
		acc := 100 * float64(correct) / float64(total)
		unk := 100 * float64(unknown) / float64(total)
		mis := 100 * float64(wrong) / float64(total)
		injected := uint64(0)
		for _, c := range res.FaultCounts {
			injected += c
		}
		tb.Add(
			fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%.1f%%", acc),
			fmt.Sprintf("%.1f%%", unk),
			fmt.Sprintf("%.1f%%", mis),
			fmt.Sprintf("%.2f", confSum/float64(total)),
			fmt.Sprintf("%.0f", tickSum/float64(total)),
			fmt.Sprintf("%d", injected),
		)
		xs = append(xs, rate*100)
		accs = append(accs, acc)
		unks = append(unks, unk)
		miss = append(miss, mis)
		rep.Metrics[fmt.Sprintf("accuracy_rate%.0f", rate*100)] = acc
		rep.Metrics[fmt.Sprintf("unknown_rate%.0f", rate*100)] = unk
		rep.Metrics[fmt.Sprintf("mislabeled_rate%.0f", rate*100)] = mis
	}
	rep.Tables = append(rep.Tables, tb)

	fig := trace.NewFigure("Accuracy vs fault rate", "fault rate (%)", "percent of victims")
	fig.AddSeries("accuracy", xs, accs)
	fig.AddSeries("unknown", xs, unks)
	fig.AddSeries("mislabeled", xs, miss)
	rep.Figures = append(rep.Figures, fig)

	rep.Notes = append(rep.Notes,
		"faults: per-ramp dropout + transient probe failure (retried with capped backoff), per-reading bounded sensor spikes, per-boundary co-resident churn",
		"degraded episodes report \"unknown\" instead of a label once observation confidence falls below the detector floor")
	return rep
}
