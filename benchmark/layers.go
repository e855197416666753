package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"bolt/internal/attack"
	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/defence"
	"bolt/internal/exper"
	"bolt/internal/fleet"
	"bolt/internal/probe"
	"bolt/internal/serve"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// This file holds the per-layer probes of the traced run. Each times or
// counts one layer through its public functions, on fixtures built from the
// run seed at fixed iteration counts, so two commits do identical work. The
// probes do not depend on the workload being traced: every traced run
// reports every layer, and the workload decides only what the span trace
// and trace.overhead describe.

// layerMetrics collects per-layer values by metric name.
type layerMetrics map[string]float64

// scaled is a fixed probe count under the sizing's probe factor.
func (sz sizing) scaled(n int) int {
	if n = int(float64(n) * sz.probe); n < 3 {
		return 3
	}
	return n
}

// probeLayers runs every layer probe.
func probeLayers(seed uint64, sz sizing) (layerMetrics, error) {
	m := layerMetrics{}
	m["load.sleep_overshoot_us"] = sleepOvershootUS(sz.scaled(300))
	probeExper(m, seed)
	det := probeCore(m, seed, sz)
	probeDetect(m, det, seed, sz)
	probeFleet(m, seed, sz)
	probeCluster(m, seed, sz)
	probeDefence(m, seed, sz)
	if err := probeServe(m, seed, sz); err != nil {
		return nil, err
	}
	return m, nil
}

// probeExper runs one full suite pass as the suite workload does and reads
// each experiment's RunResult.Elapsed, then times rendering alone.
func probeExper(m layerMetrics, seed uint64) {
	exper.SetEpisodeWorkers(1) // the suite workload's known deviation
	defer exper.SetEpisodeWorkers(0)

	wall0, cpu0 := time.Now(), cpuNow()
	results := exper.Run(exper.All(), seed, 0)
	wall, cpu := time.Since(wall0), cpuNow()-cpu0

	total, longest := 0.0, 0.0
	for _, r := range results {
		s := r.Elapsed.Seconds()
		m["exper."+r.Experiment.ID+"_s"] = s
		total += s
		if s > longest {
			longest = s
		}
	}
	m["exper.sum_elapsed_s"] = total
	m["exper.critical_path_s"] = longest
	m["exper.parallel_efficiency"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))

	m["trace.render_ms"] = 1e3 * median(timeEach(5, func(int) {
		for _, r := range results {
			r.Report.Render(io.Discard)
		}
	}))
}

// tickWorld is bench_test.go's observation-plane host: an 8-core server
// carrying a reactive victim, a batch app, a diurnal service, and a 4-vCPU
// adversary.
func tickWorld(seed uint64) (*sim.Server, *sim.VM, *probe.Adversary) {
	rng := stats.NewRNG(seed)
	s := sim.NewServer("bench", sim.ServerConfig{})
	place := func(vm *sim.VM) {
		if err := s.Place(vm); err != nil {
			panic(err) // an empty default server fits these 11 vCPUs
		}
	}
	vspec := workload.Memcached(rng.Split(), 1)
	vspec.Jitter = 0
	vapp := workload.NewReactive(workload.NewApp(vspec, workload.Constant{Level: 0.9}, rng.Uint64()))
	victim := &sim.VM{ID: "victim", VCPUs: 3, App: vapp}
	place(victim)
	vapp.Bind(s, victim)
	bspec := workload.Hadoop(rng.Split(), 0)
	bspec.Jitter = 0
	place(&sim.VM{ID: "batch", VCPUs: 2, App: workload.NewApp(bspec, workload.Batch{Ramp: 10, Level: 0.95}, rng.Uint64())})
	wspec := workload.Webserver(rng.Split(), 0)
	wspec.Jitter = 0
	place(&sim.VM{ID: "web", VCPUs: 2, App: workload.NewApp(wspec, workload.Diurnal{Min: 0.2, Max: 0.9, Period: 1000}, rng.Uint64())})
	adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
	place(adv.VM)
	return s, victim, adv
}

// probeCore times uncached training and the warmed episode step, then the
// probe and simulator calls a step is made of. It returns a trained
// detector for the detection probes.
func probeCore(m layerMetrics, seed uint64, sz sizing) *core.Detector {
	specs := workload.TrainingSpecs(seed)
	var det *core.Detector
	m["core.train_ms"] = 1e3 * median(timeEach(sz.scaled(20), func(int) { det = core.Train(specs, core.Config{}) }))

	s, victim, adv := tickWorld(seed)
	ep := det.NewEpisode(s, adv)
	const warm = 20 // past the escalation ladder, as BenchmarkEpisodeStep
	for i := 0; i < warm; i++ {
		ep.Step(sim.Tick(i * 100))
	}
	steps := sz.scaled(500)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perStep := timeMean(steps, func(i int) { ep.Step(sim.Tick((warm + i) * 100)) })
	runtime.ReadMemStats(&after)
	m["core.episode_step_us"] = 1e6 * perStep
	m["core.episode_step_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(steps)

	base := sim.Tick((warm + steps) * 100)
	m["probe.profile_once_us"] = 1e6 * timeMean(sz.scaled(2000), func(i int) {
		adv.ProfileOnce(s, base+sim.Tick(i*100), 0)
	})
	sink := 0.0
	m["sim.tick_us"] = 1e6 * timeMean(sz.scaled(20000), func(i int) {
		t := base + sim.Tick(i)
		v := s.ObservedVector(adv.VM, t)
		sink += v.Get(sim.LLC) + s.Slowdown(victim, t) + s.CPUUtilization(t)
	})
	_ = sink
	return det
}

// probeDetect times one detection on the serve request mix at the three
// levels a served query passes through: the recommender, the fused batch
// path (16 rows sharing a mask, per row), and the solo profile path.
func probeDetect(m layerMetrics, det *core.Detector, seed uint64, sz sizing) {
	n := det.Rec.ResourceCount()
	masks := requestMasks(n)
	rng := stats.NewRNG(seed)
	const mix = 1024
	obs, mask := make([][]float64, mix), make([]int, mix)
	known := make([]bool, n)
	for i := range obs {
		obs[i] = make([]float64, n)
		mask[i] = nextRequest(rng, masks, obs[i], known)
	}
	calls := sz.scaled(4000)
	m["mining.detect_us"] = 1e6 * timeMean(calls, func(i int) { det.Rec.Detect(obs[i%mix], masks[mask[i%mix]]) })
	m["core.detect_profile_us"] = 1e6 * timeMean(calls, func(i int) { det.DetectProfile(obs[i%mix], masks[mask[i%mix]]) })

	// Batches share one mask, as serve's flush groups them.
	rows := make([][]float64, 16)
	for i := range rows {
		rows[i] = make([]float64, n)
		for j, k := range masks[0] {
			if k {
				rows[i][j] = stats.Clamp(rng.Range(0, 100), 0, 100)
			}
		}
	}
	m["mining.detect_batch16_us_per_row"] = 1e6 * timeMean(calls/16, func(int) { det.DetectProfileBatch(rows, masks[0]) }) / 16
}

// fleetSchedulers are the fleet experiment's three schedulers, in its order.
var fleetSchedulers = []struct {
	key string // as in cluster.place_us_<key>
	mk  func() cluster.Scheduler
}{
	{"leastloaded", func() cluster.Scheduler { return cluster.LeastLoaded{} }},
	{"quasar", func() cluster.Scheduler { return cluster.Quasar{} }},
	{"affinity", func() cluster.Scheduler { return cluster.NewAffinity(cluster.LeastLoaded{}) }},
}

// campaignTimes is the decomposition of the fleet experiment's campaigns.
type campaignTimes struct {
	setup    []float64 // attack.NewCampaign, seconds, per campaign
	ticks    []float64 // fleet tick durations, seconds
	wall     float64   // set-up + run, all campaigns
	waves    int
	outcomes map[string]attack.Outcome // "<scheduler>_<strategy>_<servers>"
}

// runCampaigns replays exper.FleetExp from the harness — same RNG streams,
// same schedulers, same order — with hooks that stamp every fleet tick.
// Hooks do not change a campaign, so its Outcomes equal the fleet report's
// metrics (fleet_attack's traced run checks that they do). A tick is timed
// from the previous tick's hook; the first tick of each probe window has no
// hook before it and is given the window's median.
func runCampaigns(seed uint64, servers int, tr *tracer, parent, opID int) campaignTimes {
	ct := campaignTimes{outcomes: map[string]attack.Outcome{}}
	rng := stats.NewRNG(seed ^ 0xf1ee7) // FleetExp's stream
	wall0 := time.Now()
	for _, fs := range fleetSchedulers {
		for _, trickle := range []bool{false, true} {
			sched := fs.mk() // fresh per campaign: Affinity accumulates labels
			strategy := "bulk"
			ct.waves++
			if trickle {
				strategy = "trickle"
				ct.waves += attack.CampaignSenders - 1
			}
			campSpan := tr.begin("attack.Campaign", parent, opID)

			id := tr.begin("attack.NewCampaign", campSpan, opID)
			t0 := time.Now()
			c := attack.NewCampaign(rng.Split(), servers, sched, trickle)
			ct.setup = append(ct.setup, time.Since(t0).Seconds())
			tr.end(id)

			var window []float64
			var last time.Time
			var runSpan int
			hooks := attack.Hooks{
				AfterTick: func(sim.Tick, []fleet.Event) {
					now := time.Now()
					if !last.IsZero() {
						window = append(window, now.Sub(last).Seconds())
						tr.add("fleet.Engine.Tick", runSpan, opID, last, now)
					}
					last = now
				},
				AfterWindow: func(int, []float64) {
					ct.ticks = append(ct.ticks, window...)
					ct.ticks = append(ct.ticks, median(window))
					window, last = window[:0], time.Time{}
				},
			}
			runSpan = tr.begin("attack.Campaign.Run", campSpan, opID)
			out := c.Run(hooks)
			tr.end(runSpan)
			tr.end(campSpan)
			ct.outcomes[fmt.Sprintf("%s_%s_%d", sched.Name(), strategy, servers)] = out
		}
	}
	ct.wall = time.Since(wall0).Seconds()
	return ct
}

// matchesReport reports whether the replayed campaigns' Outcomes equal the
// fleet report's metrics.
func (ct campaignTimes) matchesReport(rep *exper.Report) error {
	for key, out := range ct.outcomes {
		for name, got := range map[string]float64{
			"coresidency_p_" + key: out.CoResP,
			"precision_" + key:     out.Precision,
			"probe_ticks_" + key:   float64(out.ProbeTicks),
		} {
			if want, ok := rep.Metrics[name]; !ok || want != got {
				return fmt.Errorf("replayed campaign %s = %v, fleet report has %v", name, got, want)
			}
		}
	}
	return nil
}

// probeFleet decomposes the fleet experiment's campaigns into set-up, fleet
// ticks and the rest (launch waves: scheduler placements, churn, judgement),
// at the default shard workers and again at one.
func probeFleet(m layerMetrics, seed uint64, sz sizing) {
	ct := runCampaigns(seed, sz.probeServers, nil, 0, 0)
	tickTotal := sum(ct.ticks)
	m["attack.campaign_setup_ms"] = 1e3 * median(ct.setup)
	m["fleet.ticks"] = float64(len(ct.ticks))
	m["fleet.tick_ms_p50"] = 1e3 * median(ct.ticks)
	m["fleet.tick_ms_p99"] = 1e3 * stats.Percentile(ct.ticks, 99)
	m["fleet.server_ticks_per_s"] = float64(len(ct.ticks)*sz.probeServers) / tickTotal
	m["fleet.tick_share"] = tickTotal / ct.wall
	m["attack.wave_ms"] = 1e3 * (ct.wall - tickTotal - sum(ct.setup)) / float64(ct.waves)

	fleet.SetShardWorkers(1)
	w1 := runCampaigns(seed, sz.probeServers, nil, 0, 0)
	fleet.SetShardWorkers(0)
	m["fleet.tick_ms_w1"] = 1e3 * median(w1.ticks)
	m["fleet.shard_speedup"] = median(w1.ticks) / median(ct.ticks)
}

// probeCluster times the public Cluster calls the campaigns and the moving-
// target defence make, on a campaign-populated cluster per scheduler.
func probeCluster(m layerMetrics, seed uint64, sz sizing) {
	probeSpec := workload.Spec{Label: "probe:sender", Class: "probe"}
	var c *attack.Campaign
	rng := stats.NewRNG(seed)
	for _, fs := range fleetSchedulers {
		sched := fs.mk()
		c = attack.NewCampaign(rng.Split(), sz.probeServers, sched, true)
		aff, _ := sched.(*cluster.Affinity)
		places := sz.scaled(50)
		total := time.Duration(0)
		for k := 0; k < places; k++ {
			id := fmt.Sprintf("probe-%d", k)
			vm := &sim.VM{ID: id, VCPUs: 1, App: workload.NewApp(probeSpec, workload.Constant{}, uint64(k))}
			if aff != nil {
				aff.Want(id, "svc=db")
			}
			t0 := time.Now()
			_, err := c.Cl.Place(vm, 0)
			total += time.Since(t0)
			if err != nil {
				panic(err) // a campaign cluster runs at ~35 % load
			}
			c.Cl.Remove(id) // keep the cluster as the campaign left it
		}
		m["cluster.place_us_"+fs.key] = 1e6 * total.Seconds() / float64(places)
	}

	// The last cluster is the affinity one, which the mtd policy migrates on.
	victims := c.Victims
	m["cluster.hostof_ns"] = 1e9 * timeMean(sz.scaled(200000), func(i int) { c.Cl.HostOf(victims[i%len(victims)]) })
	m["cluster.migrate_us"] = 1e6 * timeMean(sz.scaled(1000), func(i int) {
		if _, err := c.Cl.Migrate(victims[i%len(victims)], sim.Tick(i)); err != nil {
			panic(err)
		}
	})

	mon := defence.NewMonitor(&defence.CPUThreshold{Threshold: 70, Sustain: attack.CampaignProbeWindow})
	host := c.Cl.HostOf(victims[0])
	m["defence.monitor_sample_ns"] = 1e9 * timeMean(sz.scaled(100000), func(i int) { mon.Sample(host, sim.Tick(i)) })
}

// probeDefence runs the defence sweep one policy at a time, so each cell's
// cost is seen alone, and reads the defender's and the attacker's
// deterministic counts from the report.
func probeDefence(m layerMetrics, seed uint64, sz sizing) {
	exper.SetFleetServers(sz.probeServers)
	defer exper.SetFleetServers(0)
	defer exper.SetDefencePolicies("")
	sweep := mustExperiments("defencesweep")
	moves, episodes := 0.0, 0.0
	for _, policy := range exper.DefencePolicies() {
		exper.SetDefencePolicies(policy)
		t0 := time.Now()
		rep := exper.Run(sweep, seed, 0)[0].Report
		m["exper.cell_s_"+policy] = time.Since(t0).Seconds()
		key := fmt.Sprintf("%s_%d", policy, sz.probeServers)
		moves += rep.Metrics["moves_"+key]
		episodes += rep.Metrics["det_episodes_"+key]
	}
	m["defence.moves"] = moves
	m["core.escalation_episodes"] = episodes
}

// probeServe splits a served query into its parts: the same request streams
// over the socket and straight into Server.Detect, the JSON codec alone,
// the loopback round trip alone, and a phase with snapshot swaps beside the
// reads.
func probeServe(m layerMetrics, seed uint64, sz sizing) error {
	fx, err := newSocketFixture(seed, sz.scaled(2000))
	if err != nil {
		return err
	}
	defer fx.close()
	perClient := sz.scaled(12000) / socketClients

	sock := fx.run(fx.overSocket, perClient, nil, true)
	if sock.failed > 0 {
		return fmt.Errorf("serve probe, socket phase: %s", sock.why)
	}
	st := fx.srv.Stats()
	m["serve.batch_mean"] = float64(st.Served) / float64(st.Batches)
	m["serve.batch_max"] = float64(st.MaxBatch)
	m["serve.shed"] = float64(st.Shed)
	sockP50 := 1e6 * median(sock.lat)
	m["load.socket_qps"] = float64(len(sock.lat)) / sock.wall.Seconds()
	m["load.query_p90_us"] = 1e6 * stats.Percentile(sock.lat, 90)
	m["load.query_p99_us"] = 1e6 * stats.Percentile(sock.lat, 99)
	m["load.query_p999_us"] = 1e6 * stats.Percentile(sock.lat, 99.9)
	m["load.query_max_us"] = 1e6 * stats.Percentile(sock.lat, 100)

	in := fx.run(fx.inProcess, perClient, nil, true)
	if in.failed > 0 {
		return fmt.Errorf("serve probe, in-process phase: %s", in.why)
	}
	inP50 := 1e6 * median(in.lat)
	m["serve.inproc_p50_us"] = inP50
	m["serve.inproc_p90_us"] = 1e6 * stats.Percentile(in.lat, 90)
	m["serve.inproc_qps"] = float64(len(in.lat)) / in.wall.Seconds()
	m["serve.wire_share"] = 1 - inP50/sockP50
	m["serve.queue_overhead_us"] = inP50 - m["core.detect_profile_us"]

	wire, err := probeWire(m, fx, sz)
	if err != nil {
		return err
	}
	m["serve.wire_unattributed_us"] = sockP50 - wire - inP50

	// RCU write beside reads: swap in a second detector every 100 ms.
	other := core.Train(workload.TrainingSpecs(seed+1), core.Config{})
	stop, swapped := make(chan struct{}), make(chan []float64)
	go func() {
		var calls []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for dets := []*core.Detector{other, fx.det}; ; dets[0], dets[1] = dets[1], dets[0] {
			t0 := time.Now()
			fx.srv.Swap(dets[0])
			calls = append(calls, time.Since(t0).Seconds())
			select {
			case <-stop:
				swapped <- calls
				return
			case <-tick.C:
			}
		}
	}()
	swap := fx.run(fx.overSocket, perClient/2, nil, false)
	close(stop)
	m["serve.swap_call_us"] = 1e6 * median(<-swapped)
	if swap.failed > 0 {
		return fmt.Errorf("serve probe, swap phase: %s", swap.why)
	}
	m["serve.swap_p90_us"] = 1e6 * stats.Percentile(swap.lat, 90)
	return nil
}

// probeWire times encoding/json on the public wire types exactly as
// handleConn and Client use them (one Encoder/Decoder per connection over a
// bufio stream), and a raw loopback echo of same-sized lines with no JSON
// and no detection. It returns the sum of its five parts in µs.
func probeWire(m layerMetrics, fx *socketFixture, sz sizing) (float64, error) {
	n := len(fx.masks[0])
	rng := stats.NewRNG(1)
	count := sz.scaled(20000)
	reqs := make([]serve.WireRequest, 256)
	resps := make([]serve.WireResponse, len(reqs))
	for i := range reqs {
		obs, known := make([]float64, n), make([]bool, n)
		nextRequest(rng, fx.masks, obs, known)
		reqs[i] = serve.WireRequest{ID: uint64(i + 1), Observed: obs, Known: known}
		wr, err := fx.clients[0].Detect(obs, known)
		if err != nil {
			return 0, fmt.Errorf("wire probe: %w", err)
		}
		resps[i] = wr
	}

	var reqLines, respLines bytes.Buffer
	w := bufio.NewWriter(&reqLines)
	enc := json.NewEncoder(w)
	encReq := timeMean(count, func(i int) { enc.Encode(&reqs[i%len(reqs)]); w.Flush() })
	w = bufio.NewWriter(&respLines)
	enc = json.NewEncoder(w)
	encResp := timeMean(count, func(i int) { enc.Encode(&resps[i%len(resps)]); w.Flush() })
	reqSize, respSize := reqLines.Len()/count, respLines.Len()/count

	dec := json.NewDecoder(bufio.NewReader(&reqLines))
	decReq := timeMean(count, func(int) {
		var req serve.WireRequest
		if err := dec.Decode(&req); err != nil {
			panic(err) // decoding what the encoder above just wrote
		}
	})
	dec = json.NewDecoder(bufio.NewReader(&respLines))
	decResp := timeMean(count, func(int) {
		var wr serve.WireResponse
		if err := dec.Decode(&wr); err != nil {
			panic(err)
		}
	})

	rtt, err := loopbackRTT(count, reqSize, respSize)
	if err != nil {
		return 0, err
	}
	m["serve.wire_encode_req_us"] = 1e6 * encReq
	m["serve.wire_decode_req_us"] = 1e6 * decReq
	m["serve.wire_encode_resp_us"] = 1e6 * encResp
	m["serve.wire_decode_resp_us"] = 1e6 * decResp
	m["serve.loopback_rtt_us"] = 1e6 * rtt
	return 1e6 * (encReq + decReq + encResp + decResp + rtt), nil
}

// loopbackRTT is the median round trip, in seconds, of a reqSize-byte line
// answered by a respSize-byte line over a loopback TCP connection.
func loopbackRTT(count, reqSize, respSize int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		resp := line(respSize)
		for {
			if _, err := r.ReadSlice('\n'); err != nil {
				echoed <- nil // the client hung up
				return
			}
			if _, err := conn.Write(resp); err != nil {
				echoed <- err
				return
			}
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	r := bufio.NewReader(conn)
	req := line(reqSize)
	var ioErr error
	rtts := timeEach(count, func(int) {
		if _, err := conn.Write(req); err != nil && ioErr == nil {
			ioErr = err
		}
		if _, err := r.ReadSlice('\n'); err != nil && ioErr == nil {
			ioErr = err
		}
	})
	conn.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	return median(rtts), ioErr
}

// line is a newline-terminated line of size bytes.
func line(size int) []byte {
	b := bytes.Repeat([]byte{'x'}, size)
	b[size-1] = '\n'
	return b
}
