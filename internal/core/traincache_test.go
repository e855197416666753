package core

import (
	"sync"
	"testing"

	"bolt/internal/workload"
)

func TestTrainCachedReturnsSameDetector(t *testing.T) {
	specs := workload.TrainingSpecs(400)
	a := TrainCached(specs, Config{})
	b := TrainCached(specs, Config{})
	if a != b {
		t.Fatal("identical specs+config should share one detector")
	}
	// The zero config and its resolved form are the same training run.
	c := TrainCached(specs, Config{MaxIterations: 6})
	if a != c {
		t.Fatal("explicitly defaulted config should hit the zero-config entry")
	}
	// Rebuilding the spec slice must not defeat the cache: identity is the
	// content fingerprint, not the slice header.
	d := TrainCached(workload.TrainingSpecs(400), Config{})
	if a != d {
		t.Fatal("equal spec content should hit the cache")
	}
}

func TestTrainCachedDistinguishesInputs(t *testing.T) {
	specs := workload.TrainingSpecs(401)
	base := TrainCached(specs, Config{})
	if other := TrainCached(workload.TrainingSpecs(402), Config{}); other == base {
		t.Fatal("different training seed must not share a detector")
	}
	if other := TrainCached(specs, Config{DisableShutter: true}); other == base {
		t.Fatal("different config must not share a detector")
	}
	if other := TrainCached(specs[:len(specs)-1], Config{}); other == base {
		t.Fatal("different spec count must not share a detector")
	}
}

func TestTrainCachedMatchesTrain(t *testing.T) {
	specs := workload.TrainingSpecs(403)
	cached := TrainCached(specs, Config{})
	fresh := Train(specs, Config{})
	cp, fp := cached.Profiles(), fresh.Profiles()
	if len(cp) != len(fp) {
		t.Fatalf("cached detector has %d profiles, fresh has %d", len(cp), len(fp))
	}
	for i := range cp {
		if cp[i].Label != fp[i].Label {
			t.Fatalf("profile %d label %q vs %q", i, cp[i].Label, fp[i].Label)
		}
	}
}

// TestTrainCachedConcurrent hammers one key from many goroutines: all must
// observe the same detector, and (under -race) the single training pass must
// not race with concurrent lookups.
func TestTrainCachedConcurrent(t *testing.T) {
	specs := workload.TrainingSpecs(404)
	const goroutines = 16
	dets := make([]*Detector, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dets[i] = TrainCached(specs, Config{})
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if dets[i] != dets[0] {
			t.Fatalf("goroutine %d got a different detector", i)
		}
	}
}

func TestTrainCachedBounded(t *testing.T) {
	specs := workload.TrainingSpecs(405)
	// Distinct configs force distinct entries well past the cap.
	for i := 0; i < trainCacheCap+8; i++ {
		TrainCached(specs[:4], Config{ExtraBench: i + 1})
	}
	trainCache.Lock()
	n := len(trainCache.m)
	trainCache.Unlock()
	if n > trainCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", n, trainCacheCap)
	}
}
