package fleet

import (
	"fmt"
	"testing"

	"bolt/internal/defence"
	"bolt/internal/sim"
	"bolt/internal/stats"
)

// FuzzAdvanceMatchesTicks holds Advance to its tick-by-tick reference
// (tickByTick) on fuzzed worlds: a world seed, 1–400 servers, a span of
// 1–32 ticks, which servers carry a CPUThreshold monitor (server i when
// bit i%64 of watch is set), each monitor's Threshold and Sustain (drawn
// from params), which monitors are detached before the second and third
// advance (bits of detach), which servers the advanced engine's body reads
// (server i when bit i%64 of read is set; subsetBody only draws on the
// rest) and 1–4 shard workers. The reference's body reads every server.
// Three advances run back to back on an engine and its twin; each must
// match the reference's ticks and alarms, every alarm on the advance's
// last tick, and the two worlds must end alike (matchWorlds): the same
// accumulator on every read server, none on an unread one, and every
// server's stream at the same position.
func FuzzAdvanceMatchesTicks(f *testing.F) {
	f.Add(uint64(42), uint16(200), uint8(16), uint64(0b1001), uint64(7), uint64(0), ^uint64(0), uint8(2))
	f.Add(uint64(11), uint16(1), uint8(1), uint64(1), uint64(3), uint64(1), ^uint64(0), uint8(1))
	f.Add(uint64(5), uint16(399), uint8(31), uint64(0x8000000000000001), uint64(99), uint64(0xff00), uint64(0x0f0f), uint8(3))
	f.Add(uint64(9), uint16(64), uint8(8), uint64(0), uint64(0), uint64(0), uint64(1), uint8(4))
	f.Add(uint64(3), uint16(150), uint8(20), ^uint64(0), uint64(1234), uint64(0xaaaaaaaaaaaaaaaa), uint64(0x5555555555555555), uint8(1))
	f.Add(uint64(8), uint16(300), uint8(16), uint64(0x10), uint64(5), uint64(0), uint64(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, servers16 uint16, span8 uint8, watch, params, detach, read uint64, workers uint8) {
		servers := 1 + int(servers16)%400
		span := 1 + int(span8)%32
		withShardWorkers(t, 1+int(workers)%4)
		draw := stats.NewRNG(params)
		type monitorSpec struct {
			threshold float64
			sustain   sim.Tick
		}
		specs := make([]monitorSpec, servers)
		for i := range specs {
			// A low bar fires on the Sustain-th sample at the fleet's 0.9
			// load, a high one never: both sides of the stop rule.
			specs[i] = monitorSpec{draw.Range(0, 100), sim.Tick(1 + draw.Intn(40))}
		}
		build := func() (*Engine, []float64) {
			e := buildFleet(seed, servers)
			for i := range servers {
				if watch>>(i%64)&1 == 1 {
					e.SetMonitor(i, defence.NewMonitor(&defence.CPUThreshold{Threshold: specs[i].threshold, Sustain: specs[i].sustain}))
				}
			}
			return e, make([]float64, servers)
		}
		reads := make([]bool, servers)
		for i := range reads {
			reads[i] = read>>(i%64)&1 == 1
		}
		adv, advAcc := build()
		ref, refAcc := build()
		advBody, refBody := subsetBody(advAcc, reads), accBody(refAcc)
		var t0 sim.Tick
		for round := range 3 {
			if round > 0 {
				for i := range servers {
					if detach>>((i+32*round)%64)&1 == 1 {
						adv.SetMonitor(i, nil)
						ref.SetMonitor(i, nil)
					}
				}
			}
			got, gotTicks := adv.Advance(t0, span, advBody)
			want, wantTicks := tickByTick(ref, t0, span, refBody)
			matchAdvance(t, fmt.Sprintf("round %d", round), t0, got, gotTicks, want, wantTicks)
			t0 += sim.Tick(gotTicks)
		}
		for i, r := range reads {
			if !r {
				if advAcc[i] != 0 {
					t.Fatalf("unread server %d accumulated %v", i, advAcc[i])
				}
				refAcc[i] = 0
			}
		}
		matchWorlds(t, "end", adv, ref, advAcc, refAcc)
	})
}
