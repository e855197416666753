package fleet

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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

// shardWitness counts how many shards an advance really ran, without
// goroutine ids: the engine hands every server of one shard the same
// *World, so after an advance the number of distinct pointers across the
// (contiguous) server range is the shard count. The pointers are kept only
// so no two shards of one advance can share an address; they are never
// dereferenced after the body returns. It also records, per server, the
// spans the body was handed since the last spans check.
type shardWitness struct {
	world []*World
	spans [][][2]sim.Tick
}

func newShardWitness(servers int) *shardWitness {
	return &shardWitness{world: make([]*World, servers), spans: make([][][2]sim.Tick, servers)}
}

func (sw *shardWitness) wrap(fn TickFunc) TickFunc {
	return func(w *World) {
		sw.world[w.Index] = w
		sw.spans[w.Index] = append(sw.spans[w.Index], [2]sim.Tick{w.Tick, w.Last})
		fn(w)
	}
}

// checkSpans fails the test unless the advance from t0 that ran `ticks`
// ticks handed each unmonitored server's body the whole span in one call,
// and each monitored server's body one call per tick, in tick order. It
// then forgets the spans it checked.
func (sw *shardWitness) checkSpans(t *testing.T, e *Engine, t0 sim.Tick, ticks int) {
	t.Helper()
	last := t0 + sim.Tick(ticks-1)
	for i, got := range sw.spans {
		want := [][2]sim.Tick{{t0, last}}
		if e.Monitor(i) != nil {
			want = want[:0]
			for at := t0; at <= last; at++ {
				want = append(want, [2]sim.Tick{at, at})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("server %d (monitored=%v) was handed spans %v, want %v", i, e.Monitor(i) != nil, got, want)
		}
		sw.spans[i] = got[:0]
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

// fleetRun is what runFleet observes of one world's advances: each
// advance's alarms (copied out of the engine's reused slice) and ticks,
// then every server's body accumulator and next RNG draw.
type fleetRun struct {
	alarms [][]Event
	ticks  []int
	acc    []float64
	draws  []uint64
}

// runFleet advances a freshly built world `advances` times by up to `span`
// ticks at the given worker count under accBody, each advance starting
// where the last one stopped; setup (optional) prepares the engine first,
// e.g. by attaching monitors. It fails the test if an advance did not run
// on exactly the shard count the (servers, server-ticks, workers) rule
// promises — below the grain the engine runs inline, and a parity test
// that never fanned out would be a serial test in disguise — or did not
// hand each server the spans the World contract promises (checkSpans).
func runFleet(t *testing.T, workers, servers, span, advances int, setup func(*Engine)) fleetRun {
	t.Helper()
	withShardWorkers(t, workers)
	e := buildFleet(42, servers)
	if setup != nil {
		setup(e)
	}
	run := fleetRun{acc: make([]float64, servers)}
	sw := newShardWitness(servers)
	body := sw.wrap(accBody(run.acc))
	var t0 sim.Tick
	for a := 0; a < advances; a++ {
		alarms, ticks := e.Advance(t0, span, body)
		sharded := (servers - len(e.monitored)) * ticks
		if got, want := sw.shards(e), wantShards(servers, sharded, workers); got != want {
			t.Fatalf("servers=%d ticks=%d workers=%d ran on %d shards, want %d", servers, ticks, workers, got, want)
		}
		sw.checkSpans(t, e, t0, ticks)
		t0 += sim.Tick(ticks)
		run.alarms = append(run.alarms, slices.Clone(alarms))
		run.ticks = append(run.ticks, ticks)
	}
	for _, rng := range e.rngs {
		run.draws = append(run.draws, rng.Uint64())
	}
	return run
}

// TestTickParityAcrossShardWorkers is the fleet determinism contract:
// every advance's alarms and ticks, every server's accumulated tick-body
// results (compared bit for bit) and every server's next RNG draw are
// identical between the serial single-worker reference and every sharded
// width, including widths that do not divide the server count. Both shapes
// are sized above minShardServerTicks so the sharded widths really fan out
// (runFleet checks the shard count): single ticks over a large fleet, and
// probe windows over a small one.
func TestTickParityAcrossShardWorkers(t *testing.T) {
	for _, shape := range []struct{ servers, span, advances int }{
		{4099, 1, 4}, // prime server count: uneven blocks at every width
		{131, 32, 3},
	} {
		if wantShards(shape.servers, shape.servers*shape.span, 2) < 2 {
			t.Fatalf("shape %+v is below the fan-out grain; the parity check would be serial", shape)
		}
		ref := runFleet(t, 1, shape.servers, shape.span, shape.advances, nil)
		for _, workers := range []int{2, 4, 8} {
			matchRuns(t, fmt.Sprintf("%+v workers=%d", shape, workers), runFleet(t, workers, shape.servers, shape.span, shape.advances, nil), ref)
		}
	}
}

// matchRuns fails the test unless run equals the serial reference ref in
// everything runFleet observes.
func matchRuns(t *testing.T, name string, run, ref fleetRun) {
	t.Helper()
	if !slices.Equal(run.ticks, ref.ticks) {
		t.Fatalf("%s: advances ran %v ticks, serial reference %v", name, run.ticks, ref.ticks)
	}
	for a := range ref.alarms {
		if !slices.Equal(run.alarms[a], ref.alarms[a]) {
			t.Fatalf("%s: advance %d alarms %v, serial reference %v", name, a, run.alarms[a], ref.alarms[a])
		}
	}
	for i := range ref.acc {
		if math.Float64bits(run.acc[i]) != math.Float64bits(ref.acc[i]) || run.draws[i] != ref.draws[i] {
			t.Fatalf("%s: server %d accumulated %v and draws %d next, serial reference %v and %d", name, i, run.acc[i], run.draws[i], ref.acc[i], ref.draws[i])
		}
	}
}

// TestSmallTicksRunInline pins the grain rule at the sizes the benchmark
// runs: a 256-server single tick stays on the caller's goroutine at any
// configured width, while a 256-server probe window fans out.
func TestSmallTicksRunInline(t *testing.T) {
	withShardWorkers(t, 8)
	e := buildFleet(42, 256)
	sw := newShardWitness(256)
	body := sw.wrap(accBody(make([]float64, 256)))
	e.Advance(0, 1, body)
	if got := sw.shards(e); got != 1 {
		t.Fatalf("256-server tick ran on %d shards, want 1 (inline below the grain)", got)
	}
	e.Advance(1, 16, body)
	if got := sw.shards(e); got != 8 {
		t.Fatalf("256-server × 16-tick window ran on %d shards, want 8", got)
	}
}

// alarmAt is one reference alarm with the tick it was raised on.
type alarmAt struct {
	ev   Event
	tick sim.Tick
}

// tickByTick is Advance's reference: one-tick advances from t0 until span
// ticks have run or one of them raised an alarm, returning the alarms with
// their ticks and the ticks advanced. Every body call it makes is a
// one-tick span, so a span body runs its per-tick work exactly as a
// per-tick body would.
func tickByTick(e *Engine, t0 sim.Tick, span int, fn TickFunc) ([]alarmAt, int) {
	var alarms []alarmAt
	ticks := 0
	for len(alarms) == 0 && ticks < span {
		ev, _ := e.Advance(t0+sim.Tick(ticks), 1, fn)
		for _, x := range ev {
			alarms = append(alarms, alarmAt{x, t0 + sim.Tick(ticks)})
		}
		ticks++
	}
	return alarms, ticks
}

// matchAdvance fails the test unless one Advance from t0 equals the
// tick-by-tick reference — the ticks advanced and the alarming servers, in
// order — and every alarm was raised on the advance's last tick,
// t0+ticks-1.
func matchAdvance(t *testing.T, name string, t0 sim.Tick, got []Event, gotTicks int, want []alarmAt, wantTicks int) {
	t.Helper()
	if gotTicks != wantTicks {
		t.Fatalf("%s: Advance ran %d ticks, tick-by-tick reference %d", name, gotTicks, wantTicks)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Advance raised %d alarms %v, tick-by-tick reference %d %v", name, len(got), got, len(want), want)
	}
	for i, w := range want {
		if got[i] != w.ev {
			t.Fatalf("%s: alarm %d = %+v, tick-by-tick reference %+v", name, i, got[i], w.ev)
		}
		if last := t0 + sim.Tick(gotTicks-1); w.tick != last {
			t.Fatalf("%s: alarm %+v raised on tick %d, not the advance's last tick %d", name, w.ev, w.tick, last)
		}
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

// accBody returns a representative span body: at every tick of its span
// it draws a resource and a noise value from the server's stream, reads the
// observation plane and accumulates into the server's slot of acc —
// everything the campaign's probe monitor does on a host someone reads. It
// allocates nothing, so the steady-state allocation test isolates the
// engine's own cost.
func accBody(acc []float64) TickFunc { return subsetBody(acc, nil) }

// subsetBody is accBody on the servers read marks (every server when read
// is nil). On the rest it reads nothing and makes only the two draws per
// tick that a read would, as the campaign's monitor does on a host no one
// reads, so every server's stream ends where accBody leaves it.
func subsetBody(acc []float64, read []bool) TickFunc {
	return func(w *World) {
		if read != nil && !read[w.Index] {
			for t := w.Tick; t <= w.Last; t++ {
				w.RNG.Uint64()
				w.RNG.Uint64()
			}
			return
		}
		for t := w.Tick; t <= w.Last; t++ {
			r := sim.Resource(w.RNG.Uint64() % sim.NumResources)
			acc[w.Index] += w.Server.ObservedPressure(nil, r, t) + w.RNG.Float64()
		}
	}
}

// TestAdvanceMatchesTicks is the span contract: Advance(t0, k) and single
// Ticks on a twin engine, run until k ticks or the first alarm, agree with
// == on everything a caller can observe — ticks advanced, alarms,
// per-server accumulators and every server's next RNG draw. Every third
// server carries a monitor that alarms on the second tick, so round 0 of a
// multi-tick span stops early and round 1, with the monitors latched, runs
// the whole span.
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
			alarms := 0
			for round := 0; round < 2; round++ { // second round reuses warm buffers
				got, gotTicks := adv.Advance(t0, span, advBody)
				want, wantTicks := tickByTick(ref, t0, span, refBody)
				name := fmt.Sprintf("workers=%d servers=%d span=%d round=%d", workers, servers, span, round)
				if stop := 2; round == 0 && span > stop && wantTicks != stop {
					t.Fatalf("%s: reference ran %d ticks; the monitors should have stopped it at %d", name, wantTicks, stop)
				}
				matchAdvance(t, name, t0, got, gotTicks, want, wantTicks)
				t0 += sim.Tick(gotTicks)
				alarms += len(want)
			}
			if alarms == 0 {
				t.Fatalf("workers=%d servers=%d span=%d: no monitor alarmed; the alarm check would be vacuous", workers, servers, span)
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
				got, gotTicks := adv.Advance(t0, span, advBody)
				want, wantTicks := tickByTick(ref, t0, span, refBody)
				if wantTicks != rd.ticks {
					t.Fatalf("%s: reference ran %d ticks, the case expects %d", name, wantTicks, rd.ticks)
				}
				matchAdvance(t, name, t0, got, gotTicks, want, wantTicks)
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
		body := accBody(make([]float64, servers))
		e.Advance(0, span, body)
		e.Advance(0, span, body)
		return testing.AllocsPerRun(50, func() {
			if _, ticks := e.Advance(0, span, body); ticks != span {
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
