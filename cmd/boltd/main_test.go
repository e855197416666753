package main

import (
	"math"
	"strings"
	"testing"
	"time"

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
// one while reporting none, a negative queue depth, a fault rate outside
// [0, 1] or NaN, and a negative retrain period are refused before
// training; the defaults and the edges of each range are accepted.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		workers, queue int
		faultrate      float64
		retrain        time.Duration
		ok             bool
	}{
		{1, 0, 0, 0, true},
		{2, 8, 1, time.Second, true},
		{1, 0, 0.5, 0, true},
		{0, 0, 0, 0, false},
		{-1, 0, 0, 0, false},
		{1, -1, 0, 0, false},
		{1, 0, -0.1, 0, false},
		{1, 0, 1.5, 0, false},
		{1, 0, math.NaN(), 0, false},
		{1, 0, 0, -time.Second, false},
	} {
		err := checkFlags(c.workers, c.queue, c.faultrate, c.retrain)
		if (err == nil) != c.ok {
			t.Errorf("-workers %d -queue %d -faultrate %v -retrain %v: error %v, want accepted=%v", c.workers, c.queue, c.faultrate, c.retrain, err, c.ok)
		}
	}
}
