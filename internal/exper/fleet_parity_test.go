package exper

import (
	"bytes"
	"fmt"
	"testing"

	"bolt/internal/attack"
	"bolt/internal/fleet"
)

// TestFleetExpParityAcrossShardWorkers is the fleet-scale determinism
// contract at the experiment level: the rendered fleet report must be its
// golden at every -shardworkers level, including widths that do not divide
// the server count, on the default ladder and at 64, 256 and 4096 servers.
// The engine-level parity test (internal/fleet) checks the event stream;
// this one checks everything layered on top — scheduler decisions, probe
// scores, candidate judgments, the formatted table.
//
// The fleet engine runs inline below its measured grain (512 server-ticks
// per shard), so the comparison only means something above it: the default
// ladder's 256-server campaigns advance 256 × 16 = 4096 server-ticks per
// probe window, which still splits 8 ways. The guard below keeps a future
// change to the ladder or the window from quietly making the ladder rung a
// serial test.
func TestFleetExpParityAcrossShardWorkers(t *testing.T) {
	sizes := fleetSizes()
	if top := sizes[len(sizes)-1]; top*attack.CampaignProbeWindow < 8*512 {
		t.Fatalf("top fleet size %d × window %d is below 8 shards' grain; this parity test would not fan out", top, attack.CampaignProbeWindow)
	}
	t.Cleanup(func() {
		fleet.SetShardWorkers(0)
		SetFleetServers(0)
	})
	for _, n := range []int{0, 64, 256, 4096} {
		SetFleetServers(n)
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("fleet=%d,shardworkers=%d", n, workers), func(t *testing.T) {
				fleet.SetShardWorkers(workers)
				var buf bytes.Buffer
				FleetExp(42).Render(&buf)
				checkGolden(t, fleetGolden(n), buf.Bytes())
			})
		}
	}
}
