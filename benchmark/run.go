package main

import (
	"fmt"
	"time"

	"bolt/internal/exper"
)

// sizing is how big a run is. Real runs use fullSize; the smoke test shrinks
// it so every code path runs in seconds.
type sizing struct {
	suite        []exper.Experiment // what one suite operation runs
	fleetServers int                // fleet size of one fleet_attack / fleet_defended operation
	probeServers int                // fleet size of the per-layer fleet, cluster and defence probes
	warmQueries  int                // untimed queries in the serve_socket set-up
	window       int                // serve_socket queries per client in one timed window
	setupSeconds float64            // set-ups beyond minSetups are made until this much time has gone into them
	probe        float64            // factor on every fixed per-layer probe count
}

// fullSize keeps one fleet operation under a tenth of a second (the top of
// the fleet experiments' default size ladder) and one serve_socket window
// under a twentieth: the quiet floor (measure.go) is found by operations
// short enough to fit between a neighbour's bursts. The per-layer probes
// keep the 4096-server fleet, where shard scaling and the placement index
// are judged.
func fullSize() sizing {
	return sizing{suite: exper.All(), fleetServers: 256, probeServers: 4096,
		warmQueries: 4000, window: 250, setupSeconds: 2, probe: 1}
}

// runResult is one run (timed or traced) of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Unchecked int                `json:"unchecked"` // rendered reports with no golden digest
	Why       string             `json:"why,omitempty"`
	Samples   int                `json:"samples"` // timed operations (serve_socket: windows) behind the floors
	Values    map[string]float64 `json:"values"`
	Loud      map[string]float64 `json:"loud,omitempty"` // timed run: median over floor, per time
	TraceFile string             `json:"trace_file,omitempty"`
	Warning   string             `json:"sizing_warning,omitempty"`
}

func (r *runResult) fail(why string) {
	if r.Failed++; r.Why == "" {
		r.Why = why
	}
}

// addPhase folds a socket phase's counts into the run.
func (r *runResult) addPhase(p phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if r.Why == "" {
		r.Why = p.why
	}
}

const minSetups = 3

// setUp builds a fixture minSetups times, and again until sz.setupSeconds
// have gone into it, closing all but the last. It returns the last with each
// build's seconds.
func setUp[F interface{ close() }](sz sizing, build func() (F, error)) (fx F, seconds []float64, err error) {
	for spent := 0.0; len(seconds) < minSetups || spent < sz.setupSeconds; {
		if len(seconds) > 0 {
			fx.close()
		}
		t0 := time.Now()
		if fx, err = build(); err != nil {
			return fx, nil, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
		spent += seconds[len(seconds)-1]
	}
	return fx, seconds, nil
}

func isBatch(workload string) bool { return workload != "serve_socket" }

// runTimed is the tracing-off run: set-ups, then operations for the given
// time. Every time it reports is a quiet floor (measure.go): set-up over the
// set-ups, wall and CPU per operation over the operations at each seed; on
// serve_socket over windows of sz.window queries per client, each giving
// the mean round trip its closed-loop clients saw (window wall x clients /
// answers, the inverse of served queries per second per client) and its CPU
// per query. A window's median latency is not used: now and then the two
// clients fall into step so that half a window's queries are answered twice
// as fast and the other half wait, which halves the median and leaves the
// window no shorter, and a floor would pick exactly those windows.
func runTimed(workload string, seed uint64, seconds float64, sz sizing) (*runResult, error) {
	res := &runResult{Workload: workload, Values: map[string]float64{}}
	deadline := func() time.Time { return time.Now().Add(time.Duration(seconds * float64(time.Second))) }
	var inputs []uint64 // what each sample ran: the operation's seed; 0 for a window
	var walls, cpus []float64
	var setups []float64

	if isBatch(workload) {
		seeds := newSeedPool(seed)
		fx, secs, err := setUp(sz, func() (*batchFixture, error) {
			return newBatchFixture(batchSpecFor(workload, sz), seeds.take())
		})
		if err != nil {
			return nil, err
		}
		defer fx.close()
		setups = secs
		// At least one operation at every seed of the pool, so that each
		// run's floor averages the same inputs.
		for k, end := 0, deadline(); k < seedPoolSize || time.Now().Before(end); k++ {
			o := fx.op(nil, k, seeds.take())
			res.Attempted++
			res.Unchecked += o.unchecked
			if o.failed {
				res.fail(o.why)
				continue
			}
			inputs = append(inputs, o.seed)
			walls = append(walls, o.wall.Seconds())
			cpus = append(cpus, o.cpu.Seconds())
		}
		if len(walls) < 3*seedPoolSize {
			res.Warning = fmt.Sprintf("%s finished only %d operations in %.0fs: a floor over fewer than 3 per seed", workload, len(walls), seconds)
		}
	} else {
		fx, secs, err := setUp(sz, func() (*socketFixture, error) {
			return newSocketFixture(seed, sz.warmQueries)
		})
		if err != nil {
			return nil, err
		}
		defer fx.close()
		setups = secs
		for k, end := 0, deadline(); k < 2 || time.Now().Before(end); k++ {
			p := fx.run(fx.overSocket, sz.window, nil, true)
			res.addPhase(p)
			if p.failed > 0 {
				break // a client that failed has ended: no further window is whole
			}
			inputs = append(inputs, 0)
			walls = append(walls, p.wall.Seconds()*socketClients/float64(len(p.lat)))
			cpus = append(cpus, p.cpu.Seconds()/float64(len(p.lat)))
		}
	}

	res.Samples = len(walls)
	if len(walls) == 0 {
		return res, nil // every operation failed: nothing to report but that
	}
	res.Values["setup_s"] = quietFloor(make([]uint64, len(setups)), setups)
	res.Values["op_wall_ms"] = 1e3 * quietFloor(inputs, walls)
	res.Values["op_cpu_ms"] = 1e3 * quietFloor(inputs, cpus)
	res.Values["peak_rss_mb"] = peakRSSMB()
	// How far the run's typical time sat above its floor: 1 on a quiet box,
	// and the first thing to read when two runs disagree.
	res.Loud = map[string]float64{
		"setup_s":    median(setups) / res.Values["setup_s"],
		"op_wall_ms": 1e3 * median(walls) / res.Values["op_wall_ms"],
		"op_cpu_ms":  1e3 * median(cpus) / res.Values["op_cpu_ms"],
	}
	return res, nil
}

// runTraced is the tracing-on run. layers holds the per-layer probes
// (probeLayers), which every traced run reports whatever its workload; the
// workload's own operations then run in pairs — one with spans recorded, one
// without, at the same inputs, alternating which goes first — until the
// deadline, at least two pairs. trace.overhead is the median traced ÷
// untraced ratio; the spans go to <outDir>/trace-<workload>.json.
func runTraced(workload string, seed uint64, deadline time.Time, sz sizing, outDir string, layers layerMetrics) (*runResult, error) {
	res := &runResult{Workload: workload, Traced: true, Values: map[string]float64{}}
	for name, v := range layers {
		res.Values[name] = v
	}
	tr := newTracer()
	var ratios []float64
	var err error
	switch {
	case workload == "fleet_attack":
		ratios, err = pairCampaigns(res, tr, seed, sz, deadline)
	case isBatch(workload):
		ratios, err = pairBatch(res, tr, workload, seed, sz, deadline)
	default:
		ratios, err = pairSocket(res, tr, seed, sz, deadline)
	}
	if err != nil {
		return nil, err
	}
	res.Samples = len(ratios)
	if len(ratios) > 0 {
		res.Values["trace.overhead"] = median(ratios)
	}
	res.Values["trace.spans"] = float64(len(tr.spans))
	if res.TraceFile, err = tr.write(outDir, workload); err != nil {
		return nil, err
	}
	return res, nil
}

// pairBatch pairs a traced and an untraced operation at the same experiment
// seed. Both check their reports against the golden digests.
func pairBatch(res *runResult, tr *tracer, workload string, seed uint64, sz sizing, deadline time.Time) ([]float64, error) {
	seeds := newSeedPool(seed)
	fx, err := newBatchFixture(batchSpecFor(workload, sz), seeds.take())
	if err != nil {
		return nil, err
	}
	defer fx.close()
	var ratios []float64
	for k := 0; k < 2 || time.Now().Before(deadline); k++ {
		var walls [2]float64 // untraced, traced
		ok, opSeed := true, seeds.take()
		for i := 0; i < 2; i++ {
			traced := (i + k) % 2 // which half goes first alternates
			o := fx.op([2]*tracer{nil, tr}[traced], k, opSeed)
			walls[traced] = o.wall.Seconds()
			res.Attempted++
			res.Unchecked += o.unchecked
			if o.failed {
				res.fail(o.why)
				ok = false
			}
		}
		if ok {
			ratios = append(ratios, walls[1]/walls[0])
		}
	}
	return ratios, nil
}

// pairCampaigns pairs fleet_attack's operation — exper.Run of the fleet
// experiment, opaque to the harness — with the harness's own replay of the
// same campaigns under tick-stamping hooks. The replay's Outcomes must equal
// the report's metrics, which is what makes the replay's decomposition
// (probeFleet) a statement about the real operation.
func pairCampaigns(res *runResult, tr *tracer, seed uint64, sz sizing, deadline time.Time) ([]float64, error) {
	seeds := newSeedPool(seed)
	fx, err := newBatchFixture(batchSpecFor("fleet_attack", sz), seeds.take())
	if err != nil {
		return nil, err
	}
	defer fx.close()
	var ratios []float64
	for k := 0; k < 2 || time.Now().Before(deadline); k++ {
		var o opOutcome
		var ct campaignTimes
		opSeed := seeds.take()
		replay := func() {
			opSpan := tr.begin("op", 0, k)
			ct = runCampaigns(opSeed, sz.fleetServers, tr, opSpan, k)
			tr.end(opSpan)
		}
		if k%2 == 0 {
			o = fx.op(nil, k, opSeed)
			replay()
		} else {
			replay()
			o = fx.op(nil, k, opSeed)
		}
		res.Attempted++
		res.Unchecked += o.unchecked
		if o.failed {
			res.fail(o.why)
			continue
		}
		if err := ct.matchesReport(o.reports[0]); err != nil {
			res.fail(err.Error())
			continue
		}
		ratios = append(ratios, ct.wall/o.wall.Seconds())
	}
	return ratios, nil
}

// pairSocket alternates short untraced and traced stretches of the socket
// load (one span per query) and compares their median latencies.
func pairSocket(res *runResult, tr *tracer, seed uint64, sz sizing, deadline time.Time) ([]float64, error) {
	fx, err := newSocketFixture(seed, sz.warmQueries)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	perClient := sz.scaled(10000) / socketClients
	var ratios []float64
	for k := 0; k < 2 || time.Now().Before(deadline); k++ {
		var p50 [2]float64 // untraced, traced
		for i := 0; i < 2; i++ {
			traced := (i + k) % 2
			p := fx.run(fx.overSocket, perClient, [2]*tracer{nil, tr}[traced], true)
			p50[traced] = median(p.lat)
			res.addPhase(p)
		}
		ratios = append(ratios, p50[1]/p50[0])
	}
	return ratios, nil
}
