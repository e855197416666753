package main

import (
	"strings"
	"testing"

	"bolt/internal/core"
	"bolt/internal/serve"
	"bolt/internal/workload"
)

// TestRetrainOnceSurvivesPanic: a retrain generation whose training panics
// is recovered and logged, the previous snapshot keeps serving, and the
// next generation still swaps in.
func TestRetrainOnceSurvivesPanic(t *testing.T) {
	det := core.Train(workload.TrainingSpecs(1)[:8], core.Config{})
	srv := serve.New(det, serve.Config{})
	defer srv.Close()

	var log strings.Builder
	retrainOnce(srv, func(uint64) *core.Detector { panic("training set exploded") }, 2, &log)
	if got, v := srv.Snapshot(); got != det || v != 1 {
		t.Fatalf("after a panicking retrain the server answers from snapshot %d (same detector %v), want snapshot 1", v, got == det)
	}
	if !strings.Contains(log.String(), "panicked: training set exploded") {
		t.Fatalf("the panic was not logged: %q", log.String())
	}
	if _, err := srv.Detect(make([]float64, det.Rec.ResourceCount()), make([]bool, det.Rec.ResourceCount())); err != nil {
		t.Fatalf("the server stopped answering after a panicking retrain: %v", err)
	}

	next := core.Train(workload.TrainingSpecs(3)[:8], core.Config{})
	retrainOnce(srv, func(uint64) *core.Detector { return next }, 3, &log)
	if got, v := srv.Snapshot(); got != next || v != 2 {
		t.Fatalf("the next generation did not swap in: snapshot %d (new detector %v)", v, got == next)
	}
}

// TestCheckFlags: a server of no detection slots, which would serve from
// one while reporting none, or a negative queue depth is refused before
// training.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct{ workers, queue int }{{0, 0}, {-1, 0}, {1, -1}} {
		if checkFlags(c.workers, c.queue) == nil {
			t.Errorf("-workers %d -queue %d accepted", c.workers, c.queue)
		}
	}
	if err := checkFlags(1, 0); err != nil {
		t.Errorf("-workers 1 -queue 0 refused: %v", err)
	}
}
