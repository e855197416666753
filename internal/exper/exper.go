// Package exper implements one reproducible experiment per table and
// figure in the paper's evaluation. Each experiment returns a Report with
// paper-style tables/figures plus headline metrics; cmd/boltbench prints
// them all, and `boltbench -run <id>` runs one.
package exper

import (
	"fmt"
	"io"
	"sort"

	"bolt/internal/trace"
)

// Report is the rendered outcome of one experiment.
type Report struct {
	ID    string // e.g. "table1"
	Title string

	Tables   []*trace.Table
	Figures  []*trace.Figure
	Heatmaps []*trace.Heatmap
	Notes    []string

	// Metrics carries the headline numbers (e.g. "aggregate_accuracy_ll")
	// used by tests and EXPERIMENTS.md.
	Metrics map[string]float64
}

// newReport allocates a report.
func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: map[string]float64{}}
}

// Render writes the whole report to w.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, f := range r.Figures {
		f.Render(w)
		fmt.Fprintln(w)
	}
	for _, h := range r.Heatmaps {
		h.Render(w)
		fmt.Fprintln(w)
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w, "metrics:")
		for _, k := range keys {
			fmt.Fprintf(w, "  %-40s %g\n", k, r.Metrics[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered, runnable experiment.
//
// Run must be a pure function of the seed: every implementation derives all
// of its randomness from its own stats.NewRNG(seed^salt) (splitting further
// streams with RNG.Split as needed) and never touches package-level mutable
// state, so no experiment can observe another's RNG position. That contract
// is what lets exper.Run execute experiments concurrently and still promise
// byte-identical reports at every parallelism level.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed uint64) *Report
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig4", "Training-set coverage of the resource-characteristics space", Figure4},
		{"fig2", "Probability of a co-scheduled app being memcached vs resource pressure", Figure2},
		{"fig5", "Per-application resource profiles and similarity (star charts)", Figure5},
		{"insights", "Which resources leak the most information (§3.2)", Insights},
		{"confusion", "What misclassified victims get mistaken for (§3.4)", Confusion},
		{"table1", "Detection accuracy in the controlled experiment (LL and Quasar)", Table1},
		{"fig6", "Accuracy vs number of co-residents and vs dominant resource", Figure6},
		{"fig7", "Iterations until detection (total and per co-resident count)", Figure7},
		{"fig8", "Workload phase detection over time", Figure8},
		{"fig9", "Accuracy vs victim pressure per resource", Figure9},
		{"fig10", "Sensitivity: profiling interval, adversarial VM size, benchmark count", Figure10},
		{"fig11", "User study: PDF of launched application types", Figure11},
		{"fig12", "User study: label and characteristics detection accuracy", Figure12},
		{"fig13", "Internal DoS: tail latency and CPU utilisation vs time", Figure13},
		{"dosimpact", "Internal DoS aggregate impact on the 108 victims", DoSImpact},
		{"table2", "Resource-freeing attack impact", Table2},
		{"coresidency", "VM co-residency detection attack", CoResidencyExp},
		{"defence", "Does Bolt's DoS evade provider-side detection?", DefenceEvasion},
		{"fig14", "Detection accuracy under isolation mechanisms", Figure14},
		{"isocost", "Performance and utilisation cost of core isolation", IsolationCost},
		{"ablation", "Design ablations: hybrid recommender, weighting, energy, shutter", Ablations},
		// faultrate and fleet are appended after the paper-order experiments
		// (each new PR appends after the previous) so the suite's output for
		// the pre-existing experiments remains a byte-identical prefix of
		// every earlier golden capture.
		{"faultrate", "Detection accuracy under injected measurement faults", FaultRate},
		{"fleet", "Fleet-scale scheduler-guided co-location (launch-strategy sweep)", FleetExp},
		{"defencesweep", "Attacker vs defender: secure placement against scheduler-guided co-location", DefenceSweep},
	}
}

// ByID returns the experiment with the given ID, or false.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
