package main

import (
	"bytes"
	"crypto/md5"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"bolt/internal/exper"
)

// The batch workloads draw their experiment seeds from a small fixed pool,
// so every operation's output has a golden digest whatever --seed the driver
// passes, and every run measures the same seeds: a pass costs up to a third
// more at one seed than at another, and runs that sampled different seeds
// would differ by that, not by anything a change did. --seed picks where in
// the pool a run starts: `-seed 42` runs seeds 42, 43, 44, … as successive
// boltbench invocations would, and wraps after seedPoolSize. The pool is
// small so that even a suite run visits each seed several times, which the
// per-seed floor (quietFloor) needs. Successive operations use different
// seeds so core.TrainCached does not short-circuit them; after a wrap it
// does, which saves a suite pass about 13 ms of its ~2 s.
const (
	seedPoolBase = 42
	seedPoolSize = 4
	// suiteStdoutSeed42 is the md5 of `boltbench -seed 42 -epworkers 1`.
	suiteStdoutSeed42 = "eb423a4e78f86b8873b9375dd4028835"
)

// seedPool hands out the experiment seeds of one run in order.
type seedPool struct{ next uint64 }

func newSeedPool(runSeed uint64) *seedPool { return &seedPool{next: runSeed - seedPoolBase} }

func (p *seedPool) take() uint64 {
	s := seedPoolBase + p.next%seedPoolSize
	p.next++
	return s
}

//go:embed golden.json
var goldenJSON []byte

// goldenKey names one rendered report: its digest depends on the seed, on
// the fleet-size override in force (0 = the experiment's own ladder) and on
// the experiment.
func goldenKey(seed uint64, fleetServers int, id string) string {
	return fmt.Sprintf("%d/%d/%s", seed, fleetServers, id)
}

// batchSpec is what distinguishes the three batch workloads: which
// experiments one operation runs and under which process-global knobs.
type batchSpec struct {
	name         string
	exps         []exper.Experiment
	fleetServers int // exper.SetFleetServers; 0 keeps the default ladder
	epWorkers    int // exper.SetEpisodeWorkers; 0 keeps the default
}

func batchSpecFor(name string, sz sizing) batchSpec {
	switch name {
	case "suite":
		// Known deviation: one episode worker. At the default the parent
		// commit dies with "concurrent map read and map write" in
		// cluster.HostOf on >=2 cores (ROADMAP P0), and a benchmark that
		// cannot baseline its parent is useless. Experiment-level
		// parallelism stays at its default and uses both cores.
		return batchSpec{name: name, exps: sz.suite, epWorkers: 1}
	case "fleet_attack":
		return batchSpec{name: name, exps: mustExperiments("fleet"), fleetServers: sz.fleetServers}
	case "fleet_defended":
		return batchSpec{name: name, exps: mustExperiments("defencesweep"), fleetServers: sz.fleetServers}
	}
	panic("not a batch workload: " + name)
}

func mustExperiments(ids ...string) []exper.Experiment {
	out := make([]exper.Experiment, len(ids))
	for i, id := range ids {
		e, ok := exper.ByID(id)
		if !ok {
			panic("experiment not registered: " + id)
		}
		out[i] = e
	}
	return out
}

// batchFixture is a batch workload ready to run operations.
type batchFixture struct {
	spec   batchSpec
	golden map[string]string
	buf    bytes.Buffer
	ends   []int // buf offset after each rendered report
}

// opOutcome is one finished batch operation.
type opOutcome struct {
	seed      uint64
	wall, cpu time.Duration
	digests   map[string]string // experiment id → md5 of its rendered report
	reports   []*exper.Report
	failed    bool
	unchecked int
	why       string
}

// newBatchFixture is the workload's set-up: golden load, the process-global
// knobs, and one untimed warm-up operation at warmSeed.
func newBatchFixture(spec batchSpec, warmSeed uint64) (*batchFixture, error) {
	fx := &batchFixture{spec: spec}
	if err := json.Unmarshal(goldenJSON, &fx.golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	setKnobs(spec)
	if o := fx.op(nil, -1, warmSeed); o.failed {
		fx.close()
		return nil, fmt.Errorf("%s warm-up operation (seed %d): %s", spec.name, o.seed, o.why)
	}
	return fx, nil
}

// setKnobs puts the workload's process-global configuration in force.
func setKnobs(spec batchSpec) {
	exper.SetEpisodeWorkers(spec.epWorkers)
	exper.SetFleetServers(spec.fleetServers)
}

// close restores the defaults.
func (fx *batchFixture) close() { setKnobs(batchSpec{}) }

// op runs one operation — what boltbench does at seed: exper.Run of the
// workload's experiments at default parallelism, then Report.Render of each
// — and checks every rendered report against its golden digest. Digests are
// taken after the clocks stop.
func (fx *batchFixture) op(tr *tracer, opID int, seed uint64) (o opOutcome) {
	o.seed = seed
	fx.buf.Reset()
	fx.ends = fx.ends[:0]
	var results []exper.RunResult

	wall0, cpu0 := time.Now(), cpuNow()
	func() {
		defer func() {
			if r := recover(); r != nil {
				o.failed, o.why = true, fmt.Sprint("panic: ", r)
			}
		}()
		opSpan := tr.begin("op", 0, opID)
		runSpan := tr.begin("exper.Run", opSpan, opID)
		results = exper.Run(spanExperiments(fx.spec.exps, tr, runSpan, opID), o.seed, 0)
		tr.end(runSpan)
		renderSpan := tr.begin("trace.Render", opSpan, opID)
		for _, r := range results {
			r.Report.Render(&fx.buf)
			fx.ends = append(fx.ends, fx.buf.Len())
		}
		tr.end(renderSpan)
		tr.end(opSpan)
	}()
	o.wall, o.cpu = time.Since(wall0), cpuNow()-cpu0
	if o.failed {
		return o
	}

	o.digests = make(map[string]string, len(results))
	start := 0
	for i, r := range results {
		sum := md5.Sum(fx.buf.Bytes()[start:fx.ends[i]])
		start = fx.ends[i]
		id, got := r.Experiment.ID, hex.EncodeToString(sum[:])
		o.digests[id] = got
		o.reports = append(o.reports, r.Report)
		want, known := fx.golden[goldenKey(o.seed, fx.spec.fleetServers, id)]
		switch {
		case !known:
			o.unchecked++
		case got != want:
			o.failed = true
			o.why = fmt.Sprintf("report %s at seed %d renders md5 %s, golden %s", id, o.seed, got, want)
		}
	}
	return o
}

// spanExperiments wraps each experiment's Run in a span under parent, so
// the trace shows which experiments overlapped. With tracing off it returns
// exps untouched.
func spanExperiments(exps []exper.Experiment, tr *tracer, parent, opID int) []exper.Experiment {
	if tr == nil {
		return exps
	}
	out := make([]exper.Experiment, len(exps))
	for i, e := range exps {
		e, run := e, e.Run
		e.Run = func(seed uint64) *exper.Report {
			id := tr.begin("exper."+e.ID, parent, opID)
			defer tr.end(id)
			return run(seed)
		}
		out[i] = e
	}
	return out
}

// updateGolden regenerates benchmark/golden.json: every pool seed for the
// three batch workloads at full size.
func updateGolden(root string) error {
	golden := map[string]string{}
	sz := fullSize()
	for _, name := range []string{"suite", "fleet_attack", "fleet_defended"} {
		spec := batchSpecFor(name, sz)
		fx := &batchFixture{spec: spec, golden: map[string]string{}}
		setKnobs(spec)
		for k := 0; k < seedPoolSize; k++ {
			o := fx.op(nil, k, seedPoolBase+uint64(k))
			if o.failed {
				fx.close()
				return fmt.Errorf("%s at seed %d: %s", name, o.seed, o.why)
			}
			for id, sum := range o.digests {
				golden[goldenKey(o.seed, spec.fleetServers, id)] = sum
			}
			fmt.Fprintf(os.Stderr, "golden: %s seed %d (%.1fs)\n", name, o.seed, o.wall.Seconds())
			if name == "suite" && o.seed == seedPoolBase {
				// The concatenated reports are boltbench's stdout: anchor
				// the golden file to the digest the repository documents.
				if sum := md5.Sum(fx.buf.Bytes()); hex.EncodeToString(sum[:]) != suiteStdoutSeed42 {
					fx.close()
					return fmt.Errorf("suite stdout at seed 42 is md5 %x, want %s", sum, suiteStdoutSeed42)
				}
			}
		}
		fx.close()
	}
	data, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(root+"/benchmark/golden.json", append(data, '\n'), 0o644)
}
