// Package fleet advances a whole simulated datacenter — thousands of
// cluster servers, tens of thousands of VMs — a span of ticks at a time,
// with the per-server work sharded across a worker pool and the results
// merged at one deterministic barrier per Advance.
//
// The parallelism is safe because servers are independent within an
// advance: every observable a probe or monitor reads at tick t (observed
// pressure, slowdown, utilisation) is a function of one server's own VMs,
// served from that server's per-(Server, Tick) demand snapshot. Cross-server
// mutation — scheduling, migration, launch waves — happens *between*
// Advance calls, on the caller's goroutine, exactly like placement changes
// between episode steps. The same independence makes the shard loop
// server-major: a server runs all of its span's ticks back to back, while
// its VMs are still in cache, before the shard moves to the next server.
// It also lets the few servers carrying a defence monitor run ahead of the
// rest, so an advance can end at the first alarm — the tick a defender
// must act after — without a barrier per tick for the whole fleet.
//
// Determinism follows the repository's RNG-splitting and ordered-merge
// discipline (DESIGN.md "Fleet tick barrier"):
//
//   - the engine pre-splits one stats.RNG stream per server, in server-id
//     order, at construction; per-server tick bodies draw only from their
//     own stream, so the values consumed are independent of how servers
//     land on workers;
//   - servers are partitioned into contiguous shards whose boundaries are a
//     pure function of (server count, span, worker count), one worker per
//     shard — the span enters only through the minShardServerTicks cap;
//   - each server writes events into its own index-addressed buffer, and
//     the tick barrier merges buffers in server-id order — so the emitted
//     event sequence, and every float reduced across servers (reduced
//     serially at the barrier, never in the workers), is byte-identical at
//     every -shardworkers level.
package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"bolt/internal/cluster"
	"bolt/internal/defence"
	"bolt/internal/par"
	"bolt/internal/sim"
	"bolt/internal/stats"
)

// shardWorkers is the width of the fleet tick pool; 0 means GOMAXPROCS. It
// is process-global (like exper's episode pool) because it is a pure
// throughput knob: shard boundaries affect only which goroutine runs a
// server's tick body, never what that body computes or emits.
var shardWorkers atomic.Int32

// SetShardWorkers fixes how many shards advance concurrently within one
// fleet tick (the boltbench -shardworkers knob). n <= 0 restores the
// default (GOMAXPROCS at use time).
func SetShardWorkers(n int) {
	if n < 0 {
		n = 0
	}
	shardWorkers.Store(int32(n))
}

// ShardWorkers returns the current fleet tick pool width.
func ShardWorkers() int {
	if n := int(shardWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Event is one observation emitted by per-server tick work: a probe
// crossing its detection threshold, a monitor tripping, a co-residency
// confirmation. Kind is caller-defined; the engine only orders events.
type Event struct {
	Server int     // index of the emitting server (stamped by Emit)
	VM     string  // subject VM id, if any
	Kind   int     // caller-defined discriminator
	Value  float64 // caller-defined payload
}

// MonitorAlarm is the Kind of events the engine itself emits when a
// server's attached defence monitor fires (see SetMonitor). It is negative
// so caller-defined kinds (conventionally non-negative) never collide.
const MonitorAlarm = -1

// World is the view a tick body gets of one server: the server itself, the
// tick being advanced, and the server's own pre-split RNG stream. A body
// must touch only this server and its VMs and draw randomness only from
// RNG — the two rules that make shards schedule-independent. There is one
// World per shard per advance, re-pointed at each (server, tick) in turn.
type World struct {
	Index  int
	Server *sim.Server
	Tick   sim.Tick
	RNG    *stats.RNG

	events *[]Event
}

// Emit records an event against this server. Events surface at the barrier
// in server-id order (and, within one server, tick then emission order).
// The *World a tick body receives is reused for the next tick and the next
// server on the shard; bodies must not retain it past their return.
func (w *World) Emit(kind int, vm string, value float64) {
	*w.events = append(*w.events, Event{Server: w.Index, VM: vm, Kind: kind, Value: value})
}

// TickFunc is the per-server work of one fleet tick.
type TickFunc func(w *World)

// Stats is the fleet-wide view the barrier reduces after every advance,
// sampled at its last tick. The float fields are folded serially in
// server-id order, so they are bit-identical at every worker count.
type Stats struct {
	Servers   int
	VMs       int     // VMs placed across the fleet
	FreeVCPUs int     // unallocated hyperthreads across the fleet
	MeanCPU   float64 // mean per-server CPU utilisation, percent
}

// Engine shards one cluster's servers across a worker pool and advances
// them a span of ticks per barrier. The fleet is fixed at construction: the
// per-server RNG streams are split once, in server-id order, and adding
// servers later would misalign them. VM placement and migration remain free
// to happen between advances.
type Engine struct {
	cl   *cluster.Cluster
	rngs []*stats.RNG

	// monitors[i], when non-nil, is server i's defence monitor: sampled
	// once per tick after the tick body, with alarm edges surfacing as
	// MonitorAlarm events at the barrier. monitored lists those servers'
	// indices in ascending order (SetMonitor keeps it), so Advance walks
	// them without scanning the fleet.
	monitors  []*defence.Monitor
	monitored []int

	// Per-server slots written inside an advance, merged at the barrier.
	// Reused across advances so a steady-state one allocates nothing.
	events [][]Event
	cpu    []float64
	vms    []int
	free   []int
	merged []Event
}

// NewEngine builds an engine over the cluster's current servers, deriving
// one independent RNG stream per server from rng (advancing it once per
// server, in server-id order — the PR 6 pre-split discipline).
func NewEngine(cl *cluster.Cluster, rng *stats.RNG) *Engine {
	n := len(cl.Servers)
	return &Engine{
		cl:     cl,
		rngs:   rng.SplitN(n),
		events: make([][]Event, n),
		cpu:    make([]float64, n),
		vms:    make([]int, n),
		free:   make([]int, n),
	}
}

// RNG returns server i's pre-split stream, for callers that need to seed
// per-server state (a resident adversary's probe) from the same stream its
// tick bodies will draw from.
func (e *Engine) RNG(i int) *stats.RNG { return e.rngs[i] }

// SetMonitor attaches a defence monitor to server i (nil detaches). The
// engine feeds it the server's aggregate usage every tick; the tick on
// which its detector first fires is reported once as a MonitorAlarm event
// (Value carries the tick) and ends that Advance, after which the defence
// layer typically acts and calls Monitor.Reset to re-arm it.
func (e *Engine) SetMonitor(i int, m *defence.Monitor) {
	if e.monitors == nil {
		e.monitors = make([]*defence.Monitor, len(e.rngs))
	}
	k, listed := slices.BinarySearch(e.monitored, i)
	switch {
	case m != nil && !listed:
		e.monitored = slices.Insert(e.monitored, k, i)
	case m == nil && listed:
		e.monitored = slices.Delete(e.monitored, k, k+1)
	}
	e.monitors[i] = m
}

// Monitor returns server i's attached monitor, or nil.
func (e *Engine) Monitor(i int) *defence.Monitor {
	if e.monitors == nil {
		return nil
	}
	return e.monitors[i]
}

// minShardServerTicks is the least work, in server-ticks, a shard must
// carry for handing it to another goroutine to win: Advance caps its worker
// count at (unmonitored servers)·(ticks advanced) / minShardServerTicks, so
// a 256-server single tick runs inline on the caller while a 256×16 probe
// window or a 4096-server tick still fans out. It is a measured constant,
// not a knob — DESIGN.md "Fleet tick barrier" records the BenchmarkFleetTick
// sweep it came from (on the 2-core reference box two shards break even at
// 64–192 server-ticks each under sustained load and at 384–512 out of idle;
// 512 loses in neither).
const minShardServerTicks = 512

// Tick advances every server through the single tick t; see Advance.
func (e *Engine) Tick(t sim.Tick, fn TickFunc) ([]Event, Stats) {
	ev, _, st := e.Advance(t, 1, fn)
	return ev, st
}

// Advance advances every server through ticks t0 … t0+span-1 at one
// barrier, stopping early after the first tick at which an attached
// monitor alarms; it returns the merged events, the number of ticks
// advanced, and fleet Stats sampled at the last of them.
//
// Monitored servers go first, tick-major on the caller's goroutine: each
// runs fn (which may be nil) and then its monitor sample, and the first
// tick on which any of them raises an alarm edge ends the span once every
// monitored server has finished it. A caller acting on alarms (a defender
// migrating a host's tenants) thus always acts after the alarm's own tick,
// exactly as if it had stepped one tick at a time. The other servers then
// advance through the same ticks in concurrent, server-major shards: a
// server runs fn for every tick back to back and has its occupancy and
// utilisation sampled once, at the last tick, before the shard moves on.
// Both orders are legal because nothing a server computes within an
// advance depends on any other server, and an alarm depends only on its
// own server. With no monitors attached the whole span is one sharded pass.
// The barrier then merges per-server events in server-id order and reduces
// fleet Stats serially.
//
// With more than one tick the merged events are ordered by (server, tick,
// emission) — not tick-major — and a MonitorAlarm's Value carries the tick
// it fired on; for a single tick the order is (server, emission). The
// returned slice is owned by the engine and valid until the next Advance.
// Advance panics on span < 1.
func (e *Engine) Advance(t0 sim.Tick, span int, fn TickFunc) ([]Event, int, Stats) {
	if span < 1 {
		panic(fmt.Sprintf("fleet: Advance span %d; a span is at least one tick", span))
	}
	n := len(e.cl.Servers)
	if n != len(e.rngs) {
		panic(fmt.Sprintf("fleet: cluster grew from %d to %d servers after NewEngine; per-server RNG streams are fixed at construction", len(e.rngs), n))
	}
	last := t0 + sim.Tick(span-1)
	if len(e.monitored) > 0 {
		last = e.runAhead(t0, last, fn)
	}
	ticks := int(last-t0) + 1

	workers := ShardWorkers()
	if grain := (n - len(e.monitored)) * ticks / minShardServerTicks; workers > grain {
		workers = grain // below the grain the handoff costs more than it moves
	}
	par.FanOutBlocks(n, workers,
		func(lo int) string { return fmt.Sprintf("fleet shard at server %d", lo) },
		func(lo, hi int) {
			// One World per shard per advance, re-pointed at each server and
			// tick in turn: fn receives &w, which would otherwise
			// heap-allocate a World per server per tick. Bodies must not
			// retain the pointer past their return.
			var w World
			for i := lo; i < hi; i++ {
				if e.Monitor(i) != nil {
					continue // already advanced by runAhead
				}
				e.events[i] = e.events[i][:0]
				for t := t0; t <= last; t++ {
					e.step(&w, i, t, fn, nil)
				}
				e.sample(i, last)
			}
		})

	// Barrier: fold per-server samples serially in server-id order so the
	// float sums see one fixed operation sequence, and splice the
	// per-server event buffers in the same order.
	var st Stats
	st.Servers = n
	cpuSum := 0.0
	total := 0
	for i := 0; i < n; i++ {
		cpuSum += e.cpu[i]
		st.VMs += e.vms[i]
		st.FreeVCPUs += e.free[i]
		total += len(e.events[i])
	}
	if n > 0 {
		st.MeanCPU = cpuSum / float64(n)
	}
	if cap(e.merged) < total {
		e.merged = make([]Event, 0, total)
	}
	e.merged = e.merged[:0]
	for i := 0; i < n; i++ {
		e.merged = append(e.merged, e.events[i]...)
	}
	return e.merged, ticks, st
}

// runAhead advances the monitored servers tick-major from t0 and returns
// the tick it stopped after: the first on which some monitor alarmed, or
// last.
func (e *Engine) runAhead(t0, last sim.Tick, fn TickFunc) sim.Tick {
	for _, i := range e.monitored {
		e.events[i] = e.events[i][:0]
	}
	var w World
	for t := t0; ; t++ {
		alarmed := false
		for _, i := range e.monitored {
			if e.step(&w, i, t, fn, e.monitors[i]) {
				alarmed = true
			}
		}
		if alarmed || t == last {
			for _, i := range e.monitored {
				e.sample(i, t)
			}
			return t
		}
	}
}

// step runs server i's tick t: the body, then the monitor's sample (m may
// be nil), whose alarm edge is appended after the body's own events for
// this server and tick — a fixed order, so the merged stream stays
// deterministic. It reports whether the monitor alarmed.
func (e *Engine) step(w *World, i int, t sim.Tick, fn TickFunc, m *defence.Monitor) bool {
	s := e.cl.Servers[i]
	if fn != nil {
		*w = World{Index: i, Server: s, Tick: t, RNG: e.rngs[i], events: &e.events[i]}
		fn(w)
	}
	if !m.Sample(s, t) {
		return false
	}
	e.events[i] = append(e.events[i], Event{Server: i, Kind: MonitorAlarm, Value: float64(t)})
	return true
}

// sample records server i's occupancy and its utilisation at tick t for the
// barrier. Sampling utilisation after the ticks means it rides the
// observation snapshot the body's queries already built.
func (e *Engine) sample(i int, t sim.Tick) {
	s := e.cl.Servers[i]
	e.cpu[i] = s.CPUUtilization(t)
	e.vms[i] = s.VMCount()
	e.free[i] = s.FreeVCPUs()
}
