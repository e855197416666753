package exper

import (
	"bytes"
	"testing"

	"bolt/internal/attack"
	"bolt/internal/fleet"
)

// TestFleetExpParityAcrossShardWorkers is the fleet-scale determinism
// contract at the experiment level: the rendered fleet report must be
// byte-identical between the serial single-worker reference and every
// sharded -shardworkers level, including widths that do not divide the
// server count. The engine-level parity test (internal/fleet) checks the
// event stream; this one checks everything layered on top — scheduler
// decisions, probe scores, candidate judgments, the formatted table.
//
// The fleet engine runs inline below its measured grain (512 server-ticks
// per shard), so the comparison only means something above it: the default
// ladder's 256-server campaigns advance 256 × 16 = 4096 server-ticks per
// probe window, which still splits 8 ways. The guard below keeps a future
// change to the ladder or the window from quietly making this a serial
// test.
func TestFleetExpParityAcrossShardWorkers(t *testing.T) {
	sizes := fleetSizes()
	if top := sizes[len(sizes)-1]; top*attack.CampaignProbeWindow < 8*512 {
		t.Fatalf("top fleet size %d × window %d is below 8 shards' grain; this parity test would not fan out", top, attack.CampaignProbeWindow)
	}
	render := func(workers int) []byte {
		fleet.SetShardWorkers(workers)
		defer fleet.SetShardWorkers(0)
		var buf bytes.Buffer
		FleetExp(42).Render(&buf)
		return buf.Bytes()
	}
	ref := render(1)
	if len(ref) == 0 {
		t.Fatal("serial reference rendered no output")
	}
	for _, workers := range []int{2, 4, 8} {
		got := render(workers)
		if !bytes.Equal(got, ref) {
			i := 0
			for i < len(got) && i < len(ref) && got[i] == ref[i] {
				i++
			}
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("shardworkers=%d output diverged from serial reference at byte %d: …%q…",
				workers, i, ref[lo:min(i+60, len(ref))])
		}
	}
}
