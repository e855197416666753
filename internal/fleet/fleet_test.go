package fleet

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bolt/internal/cluster"
	"bolt/internal/defence"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// withShardWorkers pins the tick pool width for one test and restores the
// default on cleanup.
func withShardWorkers(t *testing.T, n int) {
	t.Helper()
	SetShardWorkers(n)
	t.Cleanup(func() { SetShardWorkers(0) })
}

// buildFleet populates a fresh cluster of n servers with ~3 VMs per server,
// placed deterministically, and returns an engine over it. Every call with
// the same arguments builds an identical world.
func buildFleet(seed uint64, n int) *Engine {
	rng := stats.NewRNG(seed)
	cl := cluster.New(n, sim.ServerConfig{}, cluster.LeastLoaded{})
	mk := []func(*stats.RNG, int) workload.Spec{
		workload.Memcached, workload.Hadoop, workload.Spark,
	}
	for i, s := range cl.Servers {
		for j := 0; j < 3; j++ {
			spec := mk[(i+j)%len(mk)](rng.Split(), i+j)
			app := workload.NewApp(spec, workload.Constant{Level: 0.9}, rng.Uint64())
			vm := &sim.VM{ID: fmt.Sprintf("vm-%d-%d", i, j), VCPUs: 1 + (i+j)%3, App: app}
			if err := s.Place(vm); err != nil {
				panic(err)
			}
		}
	}
	return NewEngine(cl, rng.Split())
}

// probeTick is a representative tick body: it consumes per-server
// randomness, reads the observation plane, and emits data-dependent events
// — everything a real fleet experiment does per server per tick. It is
// written allocation-free so the steady-state allocation test isolates the
// engine's own cost.
func probeTick(w *World) {
	r := sim.Resource(w.RNG.Intn(sim.NumResources))
	p := w.Server.ObservedPressure(nil, r, w.Tick)
	if p > 55 || w.RNG.Bool(0.05) {
		w.Emit(int(r), "", p)
	}
}

// shardWitness counts how many shards an advance really ran, without
// goroutine ids: the engine hands every server of one shard the same
// *World, so after an advance the number of distinct pointers across the
// (contiguous) server range is the shard count. The pointers are kept only
// so no two shards of one advance can share an address; they are never
// dereferenced after the body returns.
type shardWitness struct{ world []*World }

func (sw *shardWitness) wrap(fn TickFunc) TickFunc {
	return func(w *World) {
		sw.world[w.Index] = w
		fn(w)
	}
}

func (sw *shardWitness) shards(e *Engine) int {
	n := 0
	var prev *World
	for i, w := range sw.world {
		if e.Monitor(i) != nil {
			continue // advanced ahead of the shards, on the caller
		}
		if prev == nil || w != prev {
			n++
		}
		prev = w
	}
	return n
}

// wantShards is the engine's sharding rule restated: the configured width,
// capped by the measured grain over the sharded pass's server-ticks, never
// more shards than servers, never fewer than one.
func wantShards(servers, serverTicks, workers int) int {
	if grain := serverTicks / minShardServerTicks; workers > grain {
		workers = grain
	}
	if workers > servers {
		workers = servers
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runFleet advances a freshly built world `advances` times by up to `span`
// ticks at the given worker count, each advance starting where the last
// one stopped, and returns the concatenated event stream and per-advance
// stats; setup (optional) prepares the engine first, e.g. by attaching
// monitors. It fails the test if an advance did not run on exactly the
// shard count the (servers, server-ticks, workers) rule promises — below
// the grain the engine runs inline, and a parity test that never fanned
// out would be a serial test in disguise.
func runFleet(t *testing.T, workers, servers, span, advances int, setup func(*Engine)) ([]Event, []Stats) {
	t.Helper()
	withShardWorkers(t, workers)
	e := buildFleet(42, servers)
	if setup != nil {
		setup(e)
	}
	sw := &shardWitness{world: make([]*World, servers)}
	body := sw.wrap(probeTick)
	var events []Event
	var sts []Stats
	var t0 sim.Tick
	for a := 0; a < advances; a++ {
		ev, ticks, st := e.Advance(t0, span, body)
		sharded := (servers - len(e.monitored)) * ticks
		if got, want := sw.shards(e), wantShards(servers, sharded, workers); got != want {
			t.Fatalf("servers=%d ticks=%d workers=%d ran on %d shards, want %d", servers, ticks, workers, got, want)
		}
		t0 += sim.Tick(ticks)
		events = append(events, ev...) // the engine's slice is reused; copy out
		sts = append(sts, st)
	}
	return events, sts
}

// TestTickParityAcrossShardWorkers is the fleet determinism contract: the
// full event stream and every fleet Stats field are ==-identical between
// the serial single-worker reference and every sharded width, including
// widths that do not divide the server count. Both shapes are sized above
// minShardServerTicks so the sharded widths really fan out (runFleet
// checks the shard count): single ticks over a large fleet, and probe
// windows over a small one.
func TestTickParityAcrossShardWorkers(t *testing.T) {
	for _, shape := range []struct{ servers, span, advances int }{
		{4099, 1, 4}, // prime server count: uneven blocks at every width
		{131, 32, 3},
	} {
		if wantShards(shape.servers, shape.servers*shape.span, 2) < 2 {
			t.Fatalf("shape %+v is below the fan-out grain; the parity check would be serial", shape)
		}
		refEvents, refStats := runFleet(t, 1, shape.servers, shape.span, shape.advances, nil)
		if len(refEvents) == 0 {
			t.Fatal("reference run emitted no events; the parity check would be vacuous")
		}
		for _, workers := range []int{2, 4, 8} {
			events, sts := runFleet(t, workers, shape.servers, shape.span, shape.advances, nil)
			if len(events) != len(refEvents) {
				t.Fatalf("%+v workers=%d emitted %d events, serial reference %d", shape, workers, len(events), len(refEvents))
			}
			for i := range events {
				if events[i] != refEvents[i] {
					t.Fatalf("%+v workers=%d event %d = %+v, serial reference %+v", shape, workers, i, events[i], refEvents[i])
				}
			}
			for i := range sts {
				if sts[i] != refStats[i] {
					t.Fatalf("%+v workers=%d advance %d stats = %+v, serial reference %+v", shape, workers, i, sts[i], refStats[i])
				}
			}
		}
	}
}

// TestSmallTicksRunInline pins the grain rule at the sizes the benchmark
// runs: a 256-server single tick stays on the caller's goroutine at any
// configured width, while a 256-server probe window fans out.
func TestSmallTicksRunInline(t *testing.T) {
	withShardWorkers(t, 8)
	e := buildFleet(42, 256)
	sw := &shardWitness{world: make([]*World, 256)}
	e.Advance(0, 1, sw.wrap(probeTick))
	if got := sw.shards(e); got != 1 {
		t.Fatalf("256-server tick ran on %d shards, want 1 (inline below the grain)", got)
	}
	e.Advance(1, 16, sw.wrap(probeTick))
	if got := sw.shards(e); got != 8 {
		t.Fatalf("256-server × 16-tick window ran on %d shards, want 8", got)
	}
}

// tagged is one reference event with the tick it was emitted at.
type tagged struct {
	tick sim.Tick
	ev   Event
}

// tickByTick is Advance's reference: one-tick advances from t0 until span ticks
// have run or one of them raised a MonitorAlarm, with the events stably
// re-sorted by server — ticks stay ascending and emission order survives
// within a (server, tick) — into Advance's (server, tick, emission) order.
func tickByTick(e *Engine, t0 sim.Tick, span int, fn TickFunc) ([]tagged, int, Stats) {
	var out []tagged
	var st Stats
	ticks := 0
	for alarmed := false; ticks < span && !alarmed; ticks++ {
		var ev []Event
		ev, _, st = e.Advance(t0+sim.Tick(ticks), 1, fn)
		for _, x := range ev {
			out = append(out, tagged{t0 + sim.Tick(ticks), x})
			alarmed = alarmed || x.Kind == MonitorAlarm
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ev.Server < out[b].ev.Server })
	return out, ticks, st
}

// matchAdvance fails the test unless one Advance's result equals the
// tick-by-tick reference's: ticks advanced, every event, and the Stats.
func matchAdvance(t *testing.T, name string, got []Event, gotTicks int, gotStats Stats, want []tagged, wantTicks int, wantStats Stats) {
	t.Helper()
	if gotTicks != wantTicks {
		t.Fatalf("%s: Advance ran %d ticks, tick-by-tick reference %d", name, gotTicks, wantTicks)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Advance emitted %d events, %d ticks emitted %d", name, len(got), wantTicks, len(want))
	}
	for i := range want {
		if got[i] != want[i].ev {
			t.Fatalf("%s: event %d = %+v, tick-by-tick reference %+v (tick %d)", name, i, got[i], want[i].ev, want[i].tick)
		}
		if got[i].Kind == MonitorAlarm && got[i].Value != float64(want[i].tick) {
			t.Fatalf("%s: alarm %+v does not carry its tick %d", name, got[i], want[i].tick)
		}
	}
	if gotStats != wantStats {
		t.Fatalf("%s: Stats = %+v, tick-by-tick reference %+v", name, gotStats, wantStats)
	}
}

// matchWorlds fails the test unless two engines advanced alike end in the
// same state: per-server body accumulators, every server's next RNG draw
// (which consumes it), and every monitor's detector state.
func matchWorlds(t *testing.T, name string, adv, ref *Engine, advAcc, refAcc []float64) {
	t.Helper()
	for i := range refAcc {
		if advAcc[i] != refAcc[i] {
			t.Fatalf("%s: server %d accumulated %v, tick-by-tick reference %v", name, i, advAcc[i], refAcc[i])
		}
	}
	for i := range adv.rngs {
		if !reflect.DeepEqual(adv.Monitor(i), ref.Monitor(i)) {
			t.Fatalf("%s: server %d's monitor %+v, tick-by-tick reference %+v", name, i, adv.Monitor(i), ref.Monitor(i))
		}
		if g, w := adv.rngs[i].Uint64(), ref.rngs[i].Uint64(); g != w {
			t.Fatalf("%s: server %d's next RNG draw %d, tick-by-tick reference %d", name, i, g, w)
		}
	}
}

// accBody returns a tick body that consumes per-server randomness, reads
// the observation plane, accumulates into acc and emits data-dependent
// events.
func accBody(acc []float64) TickFunc {
	return func(w *World) {
		r := sim.Resource(w.RNG.Intn(sim.NumResources))
		p := w.Server.ObservedPressure(nil, r, w.Tick) + w.RNG.Float64()
		acc[w.Index] += p
		if p > 40 {
			w.Emit(int(r), "", p)
		}
	}
}

// TestAdvanceMatchesTicks is the span contract: Advance(t0, k) and single
// Ticks on a twin engine, run until k ticks or the first alarm, agree with
// == on everything a caller can observe — ticks advanced, per-server
// accumulators, the final Stats, every server's next RNG draw, and the
// events, which Advance orders by (server, tick, emission) where the
// per-tick reference is tick-major. Every third server carries a monitor
// that alarms on the second tick, so round 0 of a multi-tick span stops
// early and round 1, with the monitors latched, runs the whole span.
func TestAdvanceMatchesTicks(t *testing.T) {
	sizes := stats.NewRNG(99)
	for _, workers := range []int{1, 2, 4, 8} {
		withShardWorkers(t, workers)
		for _, span := range []int{1, 3, 16} {
			servers := 1 + sizes.Intn(400) // up to 6400 server-ticks: both sides of the grain
			seed := sizes.Uint64()
			build := func() (*Engine, []float64) {
				e := buildFleet(seed, servers)
				for i := 0; i < servers; i += 3 {
					e.SetMonitor(i, defence.NewMonitor(&defence.CPUThreshold{Threshold: 5, Sustain: 2}))
				}
				acc := make([]float64, servers)
				return e, acc
			}
			adv, advAcc := build()
			ref, refAcc := build()
			advBody, refBody := accBody(advAcc), accBody(refAcc)

			var t0 sim.Tick
			for round := 0; round < 2; round++ { // second round reuses warm buffers
				got, gotTicks, gotStats := adv.Advance(t0, span, advBody)
				want, wantTicks, wantStats := tickByTick(ref, t0, span, refBody)
				name := fmt.Sprintf("workers=%d servers=%d span=%d round=%d", workers, servers, span, round)
				if len(want) == 0 {
					t.Fatalf("%s: reference emitted no events; the check would be vacuous", name)
				}
				if stop := 2; round == 0 && span > stop && wantTicks != stop {
					t.Fatalf("%s: reference ran %d ticks; the monitors should have stopped it at %d", name, wantTicks, stop)
				}
				matchAdvance(t, name, got, gotTicks, gotStats, want, wantTicks, wantStats)
				t0 += sim.Tick(gotTicks)
			}
			matchWorlds(t, fmt.Sprintf("workers=%d servers=%d span=%d", workers, servers, span), adv, ref, advAcc, refAcc)
		}
	}
}

// TestAdvanceStopsAtFirstAlarm pins the stop-at-alarm rule case by case
// against the tick-by-tick reference. CPUThreshold monitors with a low bar
// fire on their Sustain-th sample (the fleet runs at 0.9 load), so each
// monitor's Sustain places its alarm: no alarm within the span, an alarm
// on the first tick, two servers alarming on the same tick, monitors on
// the first and last servers, and monitors attached and detached between
// advances. 200 servers × 16 ticks is above the fan-out grain, so the
// unmonitored servers really run on several shards.
func TestAdvanceStopsAtFirstAlarm(t *testing.T) {
	const servers, span = 200, 16
	// watch attaches a monitor firing on its sustain-th sample to server i
	// (sustain 0 detaches).
	watch := func(i int, sustain sim.Tick) func(*Engine) {
		return func(e *Engine) {
			if sustain == 0 {
				e.SetMonitor(i, nil)
				return
			}
			e.SetMonitor(i, defence.NewMonitor(&defence.CPUThreshold{Threshold: 5, Sustain: sustain}))
		}
	}
	type round struct {
		setup []func(*Engine) // applied to both engines before the advance
		ticks int             // ticks the advance must run
	}
	cases := []struct {
		name   string
		rounds []round
	}{
		{"no alarm", []round{
			{[]func(*Engine){watch(5, 100), watch(90, 100)}, span},
			{nil, span},
		}},
		{"alarm on the first tick", []round{
			{[]func(*Engine){watch(3, 1), watch(150, 100)}, 1},
			{nil, span},
		}},
		{"two servers alarm on one tick", []round{
			{[]func(*Engine){watch(2, 4), watch(7, 4), watch(4, 9)}, 4},
			{nil, 5},
			{nil, span},
		}},
		{"first and last server", []round{
			{[]func(*Engine){watch(0, 6), watch(servers-1, 5)}, 5},
			{nil, 1},
			{nil, span},
		}},
		{"attach then detach", []round{
			{[]func(*Engine){watch(3, 100)}, span},
			{[]func(*Engine){watch(3, 0), watch(6, 3)}, 3},
			{[]func(*Engine){watch(6, 0)}, span},
		}},
	}
	for _, workers := range []int{1, 2, 3, 8} {
		withShardWorkers(t, workers)
		for _, tc := range cases {
			adv, ref := buildFleet(11, servers), buildFleet(11, servers)
			advAcc, refAcc := make([]float64, servers), make([]float64, servers)
			advBody, refBody := accBody(advAcc), accBody(refAcc)
			var t0 sim.Tick
			for r, rd := range tc.rounds {
				for _, setup := range rd.setup {
					setup(adv)
					setup(ref)
				}
				name := fmt.Sprintf("workers=%d %s round=%d", workers, tc.name, r)
				got, gotTicks, gotStats := adv.Advance(t0, span, advBody)
				want, wantTicks, wantStats := tickByTick(ref, t0, span, refBody)
				if wantTicks != rd.ticks {
					t.Fatalf("%s: reference ran %d ticks, the case expects %d", name, wantTicks, rd.ticks)
				}
				matchAdvance(t, name, got, gotTicks, gotStats, want, wantTicks, wantStats)
				t0 += sim.Tick(gotTicks)
			}
			matchWorlds(t, fmt.Sprintf("workers=%d %s", workers, tc.name), adv, ref, advAcc, refAcc)
		}
	}
}

// TestAdvancePanicsOnEmptySpan pins the span >= 1 contract.
func TestAdvancePanicsOnEmptySpan(t *testing.T) {
	e := buildFleet(42, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Advance with span 0 did not panic")
		}
	}()
	e.Advance(0, 0, nil)
}

// TestTickEventsArriveInServerIDOrder pins the barrier's merge rule: events surface
// ordered by (server, tick, emission) — for a single tick that is the
// (server, emission) order. The span is long enough that
// the 33 servers really run on four shards.
func TestTickEventsArriveInServerIDOrder(t *testing.T) {
	const servers, span, t0 = 33, 64, 5
	withShardWorkers(t, 4)
	e := buildFleet(7, servers)
	sw := &shardWitness{world: make([]*World, servers)}
	ev, _, _ := e.Advance(t0, span, sw.wrap(func(w *World) {
		w.Emit(0, "", float64(w.Tick))
		w.Emit(1, "", float64(w.Tick))
	}))
	if got := sw.shards(e); got != 4 {
		t.Fatalf("ran on %d shards, want 4", got)
	}
	if len(ev) != 2*span*servers {
		t.Fatalf("got %d events, want %d", len(ev), 2*span*servers)
	}
	for i, x := range ev {
		want := Event{Server: i / (2 * span), Kind: i % 2, Value: float64(t0 + i/2%span)}
		if x != want {
			t.Fatalf("event %d = %+v, want %+v", i, x, want)
		}
	}
}

// TestTickStats checks the occupancy count against the world the test
// itself built: 3 VMs per server.
func TestTickStats(t *testing.T) {
	withShardWorkers(t, 3)
	const n = 10
	e := buildFleet(42, n)
	_, _, st := e.Advance(0, 1, nil)
	if st.Servers != n {
		t.Fatalf("Servers = %d, want %d", st.Servers, n)
	}
	if st.VMs != 3*n {
		t.Fatalf("VMs = %d, want %d", st.VMs, 3*n)
	}
}

// TestTickSteadyStateAllocs: after the first advances warm the buffers, an
// advance's allocation count is a small constant — the tick-body closure
// and the per-shard World — and scales with neither the number of servers
// nor the span, with or without monitors attached (their ahead-of-the-shards
// pass adds one World). A per-server or per-tick allocation creeping into
// the loop is the regression this guards against: at 4096 servers it would
// turn one tick into thousands of allocations.
func TestTickSteadyStateAllocs(t *testing.T) {
	withShardWorkers(t, 1) // inline path isolates engine allocations from pool goroutines
	perAdvance := func(servers, span int, monitored bool) float64 {
		e := buildFleet(42, servers)
		if monitored {
			// A bar nothing reaches, so every advance runs its whole span.
			for i := 0; i < servers; i += 16 {
				e.SetMonitor(i, defence.NewMonitor(&defence.CPUThreshold{Threshold: 101, Sustain: 1}))
			}
		}
		e.Advance(0, span, probeTick)
		e.Advance(0, span, probeTick)
		return testing.AllocsPerRun(50, func() {
			if _, ticks, _ := e.Advance(0, span, probeTick); ticks != span {
				t.Fatalf("advance stopped after %d of %d ticks", ticks, span)
			}
		})
	}
	for _, monitored := range []bool{false, true} {
		for _, span := range []int{1, 16} {
			small, large := perAdvance(32, span, monitored), perAdvance(256, span, monitored)
			if small > 4 {
				t.Fatalf("monitored=%v: steady-state Advance(span %d) allocates %.1f times per run, want a small constant (≤4)", monitored, span, small)
			}
			if large > small {
				t.Fatalf("monitored=%v: Advance(span %d) allocations scale with fleet size: %.1f at 32 servers, %.1f at 256", monitored, span, small, large)
			}
		}
	}
}

// TestTickPanicsWhenClusterGrows pins the fixed-fleet contract.
func TestTickPanicsWhenClusterGrows(t *testing.T) {
	e := buildFleet(42, 4)
	e.cl.Servers = append(e.cl.Servers, sim.NewServer("late", sim.ServerConfig{}))
	defer func() {
		if recover() == nil {
			t.Fatal("Tick over a grown cluster did not panic")
		}
	}()
	e.Advance(0, 1, nil)
}
