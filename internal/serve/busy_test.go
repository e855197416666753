package serve

import (
	"errors"
	"runtime"
	"testing"

	"bolt/internal/core"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// TestServeBusy pins the load-shedding path deterministically. A black-box
// burst cannot: whether two callers ever overlap depends on the scheduler.
// Instead the only slot of a Workers 1, QueueDepth 1 server is taken by hand,
// outside admission, as a detection in progress would hold it. Two callers
// then wait for it, which fills the admission bound of Workers + QueueDepth,
// and the next submission must fail fast with ErrBusy instead of waiting.
// Handing the slot back lets both waiting callers answer bit-exactly,
// proving shedding never corrupts the accepted traffic around it.
func TestServeBusy(t *testing.T) {
	det := core.TrainCached(workload.TrainingSpecs(42), core.Config{})
	n := det.Rec.ResourceCount()
	s := New(det, Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	rng := stats.NewRNG(3)
	obs := make([]float64, n)
	known := make([]bool, n)
	known[3], known[5], known[7] = true, true, true // LLC, MemBW, NetBW
	for j := range known {
		if known[j] {
			obs[j] = stats.Clamp(rng.Range(0, 100), 0, 100)
		}
	}
	want := det.DetectProfile(obs, known)

	held := <-s.slots
	type answer struct {
		resp Response
		err  error
	}
	waited := make(chan answer, 2)
	for range 2 {
		go func() {
			resp, err := s.Detect(obs, known)
			waited <- answer{resp, err}
		}()
	}
	for s.admitted.Load() < s.limit {
		runtime.Gosched()
	}

	// The submit path must now shed, not wait.
	if _, err := s.Detect(obs, known); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit past the admission bound: err = %v, want ErrBusy", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.Served != 0 {
		t.Fatalf("stats after shed: served=%d shed=%d, want 0/1", st.Served, st.Shed)
	}

	// Hand the slot back: both waiting callers answer from the solo path,
	// and the same submission now succeeds.
	s.slots <- held
	for range 2 {
		a := <-waited
		if a.err != nil {
			t.Fatalf("waiting caller answered with error: %v", a.err)
		}
		if a.resp.Confidence != want.Confidence || a.resp.Label() != want.Label() {
			t.Fatal("waiting caller's answer diverges from the solo path")
		}
	}
	resp, err := s.Detect(obs, known)
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if resp.Label() != want.Label() || resp.Confidence != want.Confidence {
		t.Fatal("post-drain answer diverges from the solo path")
	}
	if st := s.Stats(); st.Served != 3 || st.Shed != 1 {
		t.Fatalf("final stats: served=%d shed=%d, want 3/1", st.Served, st.Shed)
	}
}

// TestServeCloseWaitsForHeldSlot pins Close against a detection in
// progress, here a slot taken by hand: Close refuses new callers at once
// but does not return until the slot comes back, and then every caller
// gets ErrClosed.
func TestServeCloseWaitsForHeldSlot(t *testing.T) {
	det := core.TrainCached(workload.TrainingSpecs(42), core.Config{})
	n := det.Rec.ResourceCount()
	s := New(det, Config{Workers: 1})
	obs, known := make([]float64, n), make([]bool, n)

	held := <-s.slots
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for !s.closed.Load() {
		runtime.Gosched()
	}
	if _, err := s.Detect(obs, known); !errors.Is(err, ErrClosed) {
		t.Fatalf("Detect while Close drains: err = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a slot was still held")
	default:
	}
	s.slots <- held
	<-closed
	if _, err := s.Detect(obs, known); !errors.Is(err, ErrClosed) {
		t.Fatalf("Detect after Close: err = %v, want ErrClosed", err)
	}
}
