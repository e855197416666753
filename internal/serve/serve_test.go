package serve_test

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/mining"
	"bolt/internal/serve"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

const testSeed = 42

func testDetector(tb testing.TB) *core.Detector {
	tb.Helper()
	return core.TrainCached(workload.TrainingSpecs(testSeed), core.Config{})
}

// testMasks are the observation shapes live traffic mixes: the canonical
// LLC/MemBW/NetBW probe mask, two partial variants, a full observation,
// and an empty mask (pure-completion query, confidence 0).
func testMasks(n int) [][]bool {
	masks := make([][]bool, 5)
	for i := range masks {
		masks[i] = make([]bool, n)
	}
	masks[0][3], masks[0][5], masks[0][7] = true, true, true // LLC, MemBW, NetBW
	masks[1][3], masks[1][5] = true, true
	masks[2][6], masks[2][7], masks[2][9] = true, true, true
	for j := range masks[3] {
		masks[3][j] = true
	}
	return masks
}

// genRequest deterministically builds request k for one client stream.
func genRequest(rng *stats.RNG, masks [][]bool, n int) ([]float64, []bool) {
	mask := masks[rng.Intn(len(masks))]
	obs := make([]float64, n)
	for j := range obs {
		if mask[j] {
			obs[j] = stats.Clamp(rng.Range(0, 100), 0, 100)
		}
	}
	return obs, mask
}

// TestServeParityAcrossConfigs is the service-boundary bit-exactness test:
// at every worker count, under concurrent clients mixing all the mask
// shapes, every served answer must be bit-identical to a direct
// core.Detector.DetectProfile call — completed pressure, ranked matches,
// confidence, and label.
func TestServeParityAcrossConfigs(t *testing.T) {
	det := testDetector(t)
	n := det.Rec.ResourceCount()
	masks := testMasks(n)
	for _, workers := range []int{1, 2, 4} {
		srv := serve.New(det, serve.Config{Workers: workers, QueueDepth: 512})
		const clients, perClient = 8, 48
		rngs := stats.NewRNG(7).SplitN(clients)
		var wg sync.WaitGroup
		errc := make(chan error, clients)
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					obs, known := genRequest(rngs[ci], masks, n)
					resp, err := srv.Detect(obs, known)
					if err != nil {
						errc <- err
						return
					}
					want := det.DetectProfile(obs, known)
					if !profileEqual(resp.ProfileDetection, want) {
						t.Errorf("workers=%d: served answer diverges from solo DetectProfile", workers)
						return
					}
					if resp.Snapshot != 1 {
						t.Errorf("snapshot version = %d, want 1", resp.Snapshot)
					}
				}
			}(ci)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		st := srv.Stats()
		if st.Served != clients*perClient {
			t.Fatalf("served = %d, want %d", st.Served, clients*perClient)
		}
		// The frozen benchmark divides Served by Batches: one pass per request.
		if st.Batches != st.Served || st.MaxBatch != 1 {
			t.Fatalf("batches=%d maxbatch=%d, want %d/1", st.Batches, st.MaxBatch, st.Served)
		}
		srv.Close()
	}
}

// profileEqual compares two profile detections bit for bit.
func profileEqual(got, want core.ProfileDetection) bool {
	if got.Confidence != want.Confidence || got.Label() != want.Label() {
		return false
	}
	if len(got.Result.Pressure) != len(want.Result.Pressure) ||
		len(got.Result.Matches) != len(want.Result.Matches) {
		return false
	}
	for j := range want.Result.Pressure {
		if got.Result.Pressure[j] != want.Result.Pressure[j] {
			return false
		}
	}
	for m := range want.Result.Matches {
		if got.Result.Matches[m] != want.Result.Matches[m] {
			return false
		}
	}
	return true
}

// TestServeSwapRCU checks the RCU contract (one Load per request, writers
// CAS) at run time. One goroutine swaps detB, detA, detB, … without pause
// while clients query: each answer must bit-match the solo path of the
// detector its version maps to (a second Load pairs one generation's answer
// with another's version), and its version may be no lower than the
// client's previous one or the last version Swap returned before the
// request (a parked snapshot serves an old one). Then four goroutines race
// Swap, where a writer that does not CAS repeats versions. Both need real
// parallelism, so the test raises GOMAXPROCS to 2.
func TestServeSwapRCU(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	detA := testDetector(t)
	detB := core.TrainCached(workload.TrainingSpecs(testSeed+1), core.Config{})
	dets := [2]*core.Detector{detB, detA} // version v answers from dets[v%2]
	n := detA.Rec.ResourceCount()
	masks := testMasks(n)
	srv := serve.New(detA, serve.Config{Workers: 2, QueueDepth: 64})
	defer srv.Close()

	var lastSwap atomic.Uint64 // the last version Swap returned
	lastSwap.Store(1)
	var stop atomic.Bool
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for want := uint64(2); !stop.Load(); want++ {
			if v, err := srv.Swap(dets[want%2]); v != want || err != nil {
				t.Errorf("Swap returned version %d, %v; want %d, nil", v, err, want)
				return
			}
			lastSwap.Store(want)
		}
	}()
	var wg sync.WaitGroup
	const clients, perClient = 4, 64
	rngs := stats.NewRNG(11).SplitN(clients)
	for ci := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev uint64
			for range perClient {
				obs, known := genRequest(rngs[ci], masks, n)
				floor := lastSwap.Load()
				resp, err := srv.Detect(obs, known)
				if v := resp.Snapshot; err != nil || v < prev || v < floor {
					t.Errorf("client %d: snapshot %d, %v, after seeing %d with %d installed", ci, v, err, prev, floor)
					return
				}
				prev = resp.Snapshot
				if !profileEqual(resp.ProfileDetection, dets[prev%2].DetectProfile(obs, known)) {
					t.Errorf("client %d: answer diverges from the snapshot-%d solo path", ci, prev)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-swapperDone
	final := lastSwap.Load()
	if _, v := srv.Snapshot(); v != final || srv.Stats().Swaps != final-1 {
		t.Fatalf("final snapshot %d after %d swaps; want %d after %d", v, srv.Stats().Swaps, final, final-1)
	}
	obs, known := genRequest(stats.NewRNG(13), masks, n)
	if resp, err := srv.Detect(obs, known); err != nil || resp.Snapshot != final {
		t.Fatalf("request after the last swap: snapshot %d, %v; want %d", resp.Snapshot, err, final)
	}

	// Racers start once two have met twice: started cold, one processor may
	// run all four in turn, and swaps that never overlap lose no version.
	const swappers, perSwapper = 4, 500
	racer := serve.New(detA, serve.Config{})
	defer racer.Close()
	got := make([]uint64, swappers*perSwapper)
	var arrived [2]atomic.Int32
	for g := range swappers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range arrived {
				for arrived[i].Add(1); arrived[i].Load() < 2; {
				}
			}
			for k := range perSwapper {
				got[g*perSwapper+k], _ = racer.Swap(detA) // an error returns version 0
			}
		}()
	}
	wg.Wait()
	slices.Sort(got)
	for i, v := range got {
		if v != uint64(i+2) {
			t.Fatalf("concurrent swaps returned versions with a repeat or gap at %d; want each of 2..%d once", v, len(got)+1)
		}
	}
	if _, v := racer.Snapshot(); v != uint64(len(got)+1) || racer.Stats().Swaps != uint64(len(got)) {
		t.Fatalf("after %d concurrent swaps: version %d, Stats().Swaps %d", len(got), v, racer.Stats().Swaps)
	}
}

// TestServeSwapNil: a nil detector, or one expecting another resource
// count, is refused with an error — not a panic that would take the server
// down with it — and the current snapshot keeps answering, unchanged.
func TestServeSwapNil(t *testing.T) {
	det := testDetector(t)
	srv := serve.New(det, serve.Config{})
	defer srv.Close()
	n := det.Rec.ResourceCount()
	short := make([]mining.LabeledProfile, 3)
	for i := range short {
		short[i] = mining.LabeledProfile{Label: fmt.Sprint(i), Pressure: make([]float64, n-1)}
		short[i].Pressure[i] = 50
	}
	for name, bad := range map[string]*core.Detector{
		"nil":             nil,
		"nil recommender": {},
		"resource count":  {Rec: mining.NewRecommender(short, mining.RecommenderConfig{})},
	} {
		v, err := srv.Swap(bad)
		if err == nil || v != 0 {
			t.Fatalf("%s: Swap returned version %d, %v; want 0 and an error", name, v, err)
		}
		if cur, v := srv.Snapshot(); cur != det || v != 1 {
			t.Fatalf("%s: refused Swap left snapshot %d (same detector %v), want 1 and the original", name, v, cur == det)
		}
	}
	if st := srv.Stats(); st.Swaps != 0 {
		t.Fatalf("swaps = %d after three refusals, want 0", st.Swaps)
	}
	obs, known := genRequest(stats.NewRNG(14), testMasks(n), n)
	resp, err := srv.Detect(obs, known)
	if err != nil || resp.Snapshot != 1 {
		t.Fatalf("after refused swaps: snapshot %d, %v; want snapshot 1 answering", resp.Snapshot, err)
	}
}

// TestServeFaultInjection runs live traffic through a rate-1 dropout plane:
// every known entry is dropped, so answers degrade exactly like the solo
// path on an empty mask, responses report the injection, and the caller's
// request memory is never mutated.
func TestServeFaultInjection(t *testing.T) {
	det := testDetector(t)
	n := det.Rec.ResourceCount()
	srv := serve.New(det, serve.Config{
		Workers:   1,
		Fault:     fault.Config{Rate: 1, DisableCorruption: true, DisableChurn: true, DisableProbeFailure: true},
		FaultSeed: 9,
	})
	defer srv.Close()

	obs := make([]float64, n)
	known := make([]bool, n)
	obs[3], known[3] = 70, true
	obs[5], known[5] = 55, true
	obsCopy := append([]float64(nil), obs...)
	knownCopy := append([]bool(nil), known...)

	resp, err := srv.Detect(obs, known)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (rate-1 dropout over 2 known entries)", resp.Dropped)
	}
	// The faulted request is an empty mask; the answer must equal the solo
	// path on that degraded observation.
	empty := make([]float64, n)
	noneKnown := make([]bool, n)
	if !profileEqual(resp.ProfileDetection, det.DetectProfile(empty, noneKnown)) {
		t.Fatal("faulted answer diverges from the solo empty-mask path")
	}
	if resp.Label() != core.UnknownLabel {
		t.Fatalf("rate-1 dropout label = %q, want %q", resp.Label(), core.UnknownLabel)
	}
	for j := range obs {
		if obs[j] != obsCopy[j] || known[j] != knownCopy[j] {
			t.Fatal("server mutated the caller's request slices")
		}
	}
	if st := srv.Stats(); st.Dropped != 2 {
		t.Fatalf("stats.Dropped = %d, want 2", st.Dropped)
	}
}

// TestServeBadRequest covers the validation path: mismatched lengths and
// non-finite or out-of-range observed values are rejected without touching
// the queue.
func TestServeBadRequest(t *testing.T) {
	det := testDetector(t)
	n := det.Rec.ResourceCount()
	srv := serve.New(det, serve.Config{})
	defer srv.Close()

	if _, err := srv.Detect(make([]float64, n-1), make([]bool, n)); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("short observed: err = %v, want ErrBadRequest", err)
	}
	obs := make([]float64, n)
	known := make([]bool, n)
	known[0] = true
	for _, bad := range []float64{-1, 101, nan(), inf()} {
		obs[0] = bad
		if _, err := srv.Detect(obs, known); !errors.Is(err, serve.ErrBadRequest) {
			t.Fatalf("observed[0]=%v: err = %v, want ErrBadRequest", bad, err)
		}
	}
	// The same values on an unknown entry are ignored, not validated.
	known[0] = false
	obs[0] = inf()
	if _, err := srv.Detect(obs, known); err != nil {
		t.Fatalf("unknown entry should not be validated: %v", err)
	}
	if st := srv.Stats(); st.Rejected != 5 {
		t.Fatalf("rejected = %d, want 5", st.Rejected)
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

// TestServeClose: close with traffic in flight answers everything already
// queued; a Detect after Close fails with ErrClosed; Close is idempotent.
func TestServeClose(t *testing.T) {
	det := testDetector(t)
	n := det.Rec.ResourceCount()
	masks := testMasks(n)
	srv := serve.New(det, serve.Config{Workers: 2, QueueDepth: 128})
	var wg sync.WaitGroup
	rngs := stats.NewRNG(21).SplitN(4)
	var closedErrs, served int
	var mu sync.Mutex
	for ci := 0; ci < 4; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k := 0; k < 32; k++ {
				obs, known := genRequest(rngs[ci], masks, n)
				_, err := srv.Detect(obs, known)
				mu.Lock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, serve.ErrClosed):
					closedErrs++
				default:
					t.Errorf("unexpected error: %v", err)
				}
				mu.Unlock()
			}
		}(ci)
	}
	srv.Close()
	wg.Wait()
	srv.Close() // idempotent
	if _, err := srv.Detect(make([]float64, n), make([]bool, n)); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Detect after Close: err = %v, want ErrClosed", err)
	}
	if served+closedErrs != 4*32 {
		t.Fatalf("served %d + closed %d != %d", served, closedErrs, 4*32)
	}
}

// TestServeMaskCyclingClient: clients that cycle more known masks than a
// detection's scratch keeps plans for make every query build its plan,
// and every answer must still be the solo path's. Four goroutines on a
// two-slot server each walk 16 distinct 7-known masks three times, out of
// phase; each Response must equal DetectProfile computed alone beforehand,
// pressure, matches and confidence compared by bits.
func TestServeMaskCyclingClient(t *testing.T) {
	det := testDetector(t)
	n := det.Rec.ResourceCount()
	var masks [][]bool
	for m := 0; len(masks) < 16; m++ {
		if bits.OnesCount(uint(m)) == 7 {
			known := make([]bool, n)
			for j := range known {
				known[j] = m>>j&1 == 1
			}
			masks = append(masks, known)
		}
	}
	const clients, rounds = 4, 3
	type query struct {
		obs   []float64
		known []bool
		want  core.ProfileDetection
	}
	rng := stats.NewRNG(40)
	qs := make([][]query, clients)
	for c := range qs {
		for k := range rounds * len(masks) {
			known := masks[(k+c*len(masks)/clients)%len(masks)]
			obs := make([]float64, n)
			for j := range obs {
				if known[j] {
					obs[j] = rng.Range(0, 100)
				}
			}
			qs[c] = append(qs[c], query{obs, known, det.DetectProfile(obs, known)})
		}
	}
	srv := serve.New(det, serve.Config{Workers: 2})
	defer srv.Close()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, q := range qs[c] {
				resp, err := srv.Detect(q.obs, q.known)
				if err != nil {
					t.Errorf("client %d query %d: %v", c, k, err)
					return
				}
				if diff := sameBits(resp.ProfileDetection, q.want); diff != "" {
					t.Errorf("client %d query %d: %s", c, k, diff)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sameBits reports how got differs from want, floats by bits: "" when the
// pressure, every match and the confidence are identical.
func sameBits(got, want core.ProfileDetection) string {
	if math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
		return fmt.Sprintf("confidence %v, solo %v", got.Confidence, want.Confidence)
	}
	g, w := got.Result, want.Result
	if len(g.Pressure) != len(w.Pressure) || len(g.Matches) != len(w.Matches) {
		return fmt.Sprintf("%d pressures and %d matches, solo %d and %d", len(g.Pressure), len(g.Matches), len(w.Pressure), len(w.Matches))
	}
	for j := range w.Pressure {
		if math.Float64bits(g.Pressure[j]) != math.Float64bits(w.Pressure[j]) {
			return fmt.Sprintf("pressure[%d] %v, solo %v", j, g.Pressure[j], w.Pressure[j])
		}
	}
	for i, m := range w.Matches {
		if gm := g.Matches[i]; gm.Label != m.Label || gm.Class != m.Class || math.Float64bits(gm.Similarity) != math.Float64bits(m.Similarity) {
			return fmt.Sprintf("match %d is %+v, solo %+v", i, gm, m)
		}
	}
	return ""
}
