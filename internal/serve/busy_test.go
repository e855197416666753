package serve

import (
	"errors"
	"testing"

	"bolt/internal/core"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// TestServeBusy pins the load-shedding path deterministically. A black-box
// burst cannot: on a single-P runtime the channel's direct handoff wakes the
// worker between submissions, so a full queue is never actually observed.
// Instead the server is built without starting its workers, the depth-1
// queue is wedged by hand, and the next submission must fail fast with
// ErrBusy instead of blocking. Starting the workers afterwards drains the
// wedged call and answers it bit-exactly, proving shedding never corrupts
// the accepted traffic around it.
func TestServeBusy(t *testing.T) {
	det := core.TrainCached(workload.TrainingSpecs(42), core.Config{})
	n := det.Rec.ResourceCount()
	s := newServer(det, Config{Workers: 1, QueueDepth: 1})

	rng := stats.NewRNG(3)
	obs := make([]float64, n)
	known := make([]bool, n)
	known[3], known[5], known[7] = true, true, true // LLC, MemBW, NetBW
	for j := range known {
		if known[j] {
			obs[j] = stats.Clamp(rng.Range(0, 100), 0, 100)
		}
	}

	// Wedge the queue: no worker is running, so this call stays buffered and
	// queue depth 1 is exhausted.
	wedged := s.pool.Get().(*call)
	copy(wedged.observed, obs)
	copy(wedged.known, known)
	s.queue <- wedged

	// The submit path must now shed, not block.
	if _, err := s.Detect(obs, known); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit against a full queue: err = %v, want ErrBusy", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.Served != 0 {
		t.Fatalf("stats after shed: served=%d shed=%d, want 0/1", st.Served, st.Shed)
	}

	// Start the workers: the wedged call drains and answers from the solo
	// path, and the same submission now succeeds.
	s.start()
	<-wedged.done
	if wedged.err != nil {
		t.Fatalf("wedged call answered with error: %v", wedged.err)
	}
	want := det.DetectProfile(obs, known)
	if wedged.resp.Confidence != want.Confidence || wedged.resp.Label() != want.Label() {
		t.Fatal("wedged call's answer diverges from the solo path")
	}
	resp, err := s.Detect(obs, known)
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if resp.Label() != want.Label() || resp.Confidence != want.Confidence {
		t.Fatal("post-drain answer diverges from the solo path")
	}
	if st := s.Stats(); st.Served != 2 || st.Shed != 1 {
		t.Fatalf("final stats: served=%d shed=%d, want 2/1", st.Served, st.Shed)
	}
	s.Close()
}
