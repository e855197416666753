// Package fleet advances a whole simulated datacenter — thousands of
// cluster servers, tens of thousands of VMs — a span of ticks at a time,
// with the per-server work sharded across a worker pool and joined at one
// barrier per Advance.
//
// The parallelism is safe because servers are independent within an
// advance: every observable a probe or monitor reads at tick t (observed
// pressure, slowdown, utilisation) is a function of one server's own VMs,
// served from that server's per-(Server, Tick) demand snapshot. Cross-server
// mutation — scheduling, migration, launch waves — happens *between*
// Advance calls, on the caller's goroutine, exactly like placement changes
// between episode steps. The same independence makes the shard loop
// server-major: a server runs all of its span's ticks back to back, in one
// call of the tick body, while its VMs are still in cache, before the shard
// moves to the next server.
// It also lets the few servers carrying a defence monitor run ahead of the
// rest, so an advance can end at the first alarm — the tick a defender
// must act after — without a barrier per tick for the whole fleet.
//
// Determinism follows the repository's RNG-splitting discipline (DESIGN.md
// "Fleet tick barrier"):
//
//   - the engine pre-splits one stats.RNG stream per server, in server-id
//     order, at construction; per-server tick bodies draw only from their
//     own stream, so the values consumed are independent of how servers
//     land on workers;
//   - servers are partitioned into contiguous shards whose boundaries are a
//     pure function of (server count, span, worker count), one worker per
//     shard — the span enters only through the minShardServerTicks cap;
//   - a tick body writes only its own server's state (a caller that wants
//     a per-server result keeps an index-addressed slot per server), and
//     the only events, monitor alarms, are raised on the caller's
//     goroutine in server-id order — so every result is identical at every
//     -shardworkers level, and the barrier is a plain join.
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
// server's tick body, never what that body computes.
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

// Event is one monitor alarm: the server whose attached defence monitor
// (SetMonitor) fired on the last tick of an advance.
type Event struct {
	Server int
}

// World is the view a tick body gets of one server: the server itself, the
// span of ticks it advances, [Tick, Last], and the server's own pre-split
// RNG stream. A body must touch only this server and its VMs and draw
// randomness only from RNG — the two rules that make shards
// schedule-independent. There is one World per shard per advance,
// re-pointed at each server in turn; bodies must not retain it past their
// return.
type World struct {
	Index  int
	Server *sim.Server
	Tick   sim.Tick // the span's first tick
	Last   sim.Tick // the span's last tick, at or after Tick
	RNG    *stats.RNG
}

// TickFunc advances server w.Index through the ticks [w.Tick, w.Last] in
// tick order. The body owns the loop over the span, so a server it has
// nothing to read on costs one call per span, not one per tick. A body
// that skips a server's reads must still draw from w.RNG as the reads
// would, so that no server's stream depends on which spans read it.
type TickFunc func(w *World)

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
	// Events. monitored lists those servers' indices in ascending order
	// (SetMonitor keeps it), so Advance walks them without scanning the
	// fleet.
	monitors  []*defence.Monitor
	monitored []int

	// alarms holds the last advance's Events, reused across advances so a
	// steady-state one allocates nothing.
	alarms []Event
}

// NewEngine builds an engine over the cluster's current servers, deriving
// one independent RNG stream per server from rng (advancing it once per
// server, in server-id order — the PR 6 pre-split discipline).
func NewEngine(cl *cluster.Cluster, rng *stats.RNG) *Engine {
	return &Engine{cl: cl, rngs: rng.SplitN(len(cl.Servers))}
}

// SetMonitor attaches a defence monitor to server i (nil detaches). The
// engine feeds it the server's aggregate usage every tick; the tick on
// which its detector first fires ends that Advance and is reported once as
// an Event, after which the defence layer typically acts and calls
// Monitor.Reset to re-arm it.
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

// Advance advances every server through ticks t0 … t0+span-1, stopping
// early after the first tick at which an attached monitor alarms; it
// returns one Event per server whose monitor alarmed on the last tick
// advanced, in server-id order, and the number of ticks advanced. Every
// alarm is on that last tick, since the advance ends at the first.
//
// Monitored servers go first, tick-major on the caller's goroutine: each
// runs fn (which may be nil) over a one-tick span and then its monitor
// sample, and the first
// tick on which any of them raises an alarm edge ends the span once every
// monitored server has finished it. A caller acting on alarms (a defender
// migrating a host's tenants) thus always acts after the alarm's own tick,
// exactly as if it had stepped one tick at a time. The other servers then
// advance through the same ticks in concurrent, server-major shards: fn
// runs once per server, over the whole span, before the shard moves on.
// Both orders are legal because nothing a server computes within an
// advance depends on any other server, and an alarm depends only on its
// own server. With no monitors attached the whole span is one sharded
// pass. The barrier is the shards' join.
//
// The returned slice is owned by the engine and valid until the next
// Advance. Advance panics on span < 1.
func (e *Engine) Advance(t0 sim.Tick, span int, fn TickFunc) ([]Event, int) {
	if span < 1 {
		panic(fmt.Sprintf("fleet: Advance span %d; a span is at least one tick", span))
	}
	n := len(e.cl.Servers)
	if n != len(e.rngs) {
		panic(fmt.Sprintf("fleet: cluster grew from %d to %d servers after NewEngine; per-server RNG streams are fixed at construction", len(e.rngs), n))
	}
	e.alarms = e.alarms[:0]
	last := t0 + sim.Tick(span-1)
	if len(e.monitored) > 0 {
		last = e.runAhead(t0, last, fn)
	}
	ticks := int(last-t0) + 1
	if fn == nil {
		return e.alarms, ticks
	}

	workers := ShardWorkers()
	if grain := (n - len(e.monitored)) * ticks / minShardServerTicks; workers > grain {
		workers = grain // below the grain the handoff costs more than it moves
	}
	par.FanOutBlocks(n, workers,
		func(lo int) string { return fmt.Sprintf("fleet shard at server %d", lo) },
		func(lo, hi int) {
			// One World per shard per advance, re-pointed at each server in
			// turn: fn receives &w, which would otherwise heap-allocate a
			// World per server. Bodies must not retain the pointer past
			// their return.
			var w World
			for i := lo; i < hi; i++ {
				if e.Monitor(i) != nil {
					continue // already advanced by runAhead
				}
				w = World{Index: i, Server: e.cl.Servers[i], Tick: t0, Last: last, RNG: e.rngs[i]}
				fn(&w)
			}
		})
	return e.alarms, ticks
}

// runAhead advances the monitored servers tick-major from t0 and returns
// the tick it stopped after: the first on which some monitor alarmed, or
// last. Each server runs its body over a one-tick span, then its monitor's
// sample; the alarms of that tick are appended to e.alarms in server-id
// order.
func (e *Engine) runAhead(t0, last sim.Tick, fn TickFunc) sim.Tick {
	var w World
	for t := t0; ; t++ {
		for _, i := range e.monitored {
			s := e.cl.Servers[i]
			if fn != nil {
				w = World{Index: i, Server: s, Tick: t, Last: t, RNG: e.rngs[i]}
				fn(&w)
			}
			if e.monitors[i].Sample(s, t) {
				e.alarms = append(e.alarms, Event{Server: i})
			}
		}
		if len(e.alarms) > 0 || t == last {
			return t
		}
	}
}
