package exper

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"bolt/internal/par"
)

// withEpisodeWorkers pins the episode pool width for one test and restores
// the default on cleanup.
func withEpisodeWorkers(t *testing.T, n int) {
	t.Helper()
	SetEpisodeWorkers(n)
	t.Cleanup(func() { SetEpisodeWorkers(0) })
}

func TestForEachEpisodeDegenerateInputs(t *testing.T) {
	// Empty input: no bodies run, no goroutines spawned, no panic.
	withEpisodeWorkers(t, 4)
	calls := 0
	forEachEpisode(0, func(int) { calls++ })
	if calls != 0 {
		t.Fatalf("forEachEpisode(0) ran %d bodies", calls)
	}

	// Workers far beyond the episode count: every index runs exactly once.
	withEpisodeWorkers(t, 64)
	var mask atomic.Int64
	forEachEpisode(3, func(i int) {
		if mask.Add(1<<uint(i))>>uint(i)&1 != 1 {
			t.Errorf("index %d ran twice", i)
		}
	})
	if mask.Load() != 0b111 {
		t.Fatalf("bodies ran with mask %b, want 111", mask.Load())
	}
}

func TestForEachEpisodeMergesInInputOrder(t *testing.T) {
	withEpisodeWorkers(t, 8)
	const n = 100
	out := make([]int, n)
	forEachEpisode(n, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachEpisodePanicPropagation(t *testing.T) {
	withEpisodeWorkers(t, 4)
	ran := make([]atomic.Bool, 8)
	defer func() {
		v := recover()
		wp, ok := v.(*par.WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *WorkerPanic", v, v)
		}
		if wp.Index != 2 {
			t.Fatalf("WorkerPanic.Index = %d, want 2 (lowest panicking index)", wp.Index)
		}
		if !strings.Contains(fmt.Sprint(wp.Value), "episode 2 exploded") {
			t.Fatalf("WorkerPanic.Value = %v, want the original panic value", wp.Value)
		}
		if wp.Stack == "" {
			t.Fatal("WorkerPanic.Stack is empty")
		}
		// The panic must not have cancelled the other episodes: partial
		// results survive.
		for i := range ran {
			if i != 2 && !ran[i].Load() {
				t.Fatalf("episode %d never ran after episode 2 panicked", i)
			}
		}
	}()
	forEachEpisode(len(ran), func(i int) {
		if i == 2 {
			panic("episode 2 exploded")
		}
		ran[i].Store(true)
	})
	t.Fatal("forEachEpisode returned instead of re-panicking")
}

// TestRunPanicNamesExperiment: a panic inside an experiment surfaces on the
// caller's goroutine as a *WorkerPanic naming the experiment, after the
// surviving experiments finished — so boltbench's profile defers and
// buffered reports are not torn down by a bare worker-goroutine crash.
func TestRunPanicNamesExperiment(t *testing.T) {
	var survivors atomic.Int32
	exps := []Experiment{
		{ID: "ok-0", Title: "survives", Run: func(uint64) *Report {
			survivors.Add(1)
			return newReport("ok-0", "survives")
		}},
		{ID: "boom", Title: "panics", Run: func(uint64) *Report {
			panic("synthetic failure")
		}},
		{ID: "ok-1", Title: "survives", Run: func(uint64) *Report {
			survivors.Add(1)
			return newReport("ok-1", "survives")
		}},
	}
	defer func() {
		v := recover()
		wp, ok := v.(*par.WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *WorkerPanic", v, v)
		}
		if wp.Label != "experiment boom" {
			t.Fatalf("WorkerPanic.Label = %q, want %q", wp.Label, "experiment boom")
		}
		if !strings.Contains(wp.Error(), "synthetic failure") {
			t.Fatalf("WorkerPanic.Error() = %q, missing original panic value", wp.Error())
		}
		if survivors.Load() != 2 {
			t.Fatalf("%d surviving experiments ran, want 2", survivors.Load())
		}
	}()
	Run(exps, 42, 3)
	t.Fatal("Run returned instead of re-panicking")
}

// TestSuiteParityAcrossEpisodeWorkers pins the tentpole determinism claim:
// every experiment that fans out on the episode pool renders its seed-42
// golden at every -parallel × -epworkers combination.
func TestSuiteParityAcrossEpisodeWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the episode-pool experiments six times")
	}
	var exps []Experiment
	for _, id := range []string{"table1", "fig6", "fig10", "fig14", "confusion", "faultrate"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	for _, parallel := range []int{1, 8} {
		for _, epworkers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("parallel=%d,epworkers=%d", parallel, epworkers), func(t *testing.T) {
				withEpisodeWorkers(t, epworkers)
				checkGolden(t, "seed-42.txt", renderStdout(t, exps, 42, parallel))
			})
		}
	}
}
