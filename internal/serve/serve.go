// Package serve promotes detection from batch experiments to a long-running
// service. A Server answers profile-only detection queries (an observed
// victim pressure vector plus its known mask) from an immutable trained
// detector snapshot: requests enter a bounded queue and each worker answers
// one at a time through core.Detector.DetectProfile.
//
// Three contracts define the serving plane (see DESIGN.md "Serving plane"):
//
//   - RCU snapshots. The trained detector is held behind an
//     atomic.Pointer and replaced wholesale by Swap. A core.Detector is
//     immutable once core.Train returns, which makes the read side lock-free:
//     a worker loads the pointer once per request, and a request in flight
//     keeps answering from the snapshot it loaded while a background
//     retrain installs the next one. Nothing is ever mutated in place, so
//     there is no quiescence protocol to get wrong.
//
//   - Bounded queueing with load shedding. Requests enter a fixed-depth
//     queue; when it is full, Detect fails fast with ErrBusy instead of
//     queueing unboundedly. Overload degrades throughput, never memory.
//
//   - Bit-exactness. A served answer is bit-identical to a direct
//     core.Detector.DetectProfile call at every worker count, by
//     construction: that call is what a worker makes. The serve parity
//     test pins it at the service boundary.
//
// The request path draws no randomness. The only RNG in the package feeds
// the optional fault plane (Config.Fault), which perturbs live traffic the
// way PR 5's plane perturbs simulated probes — and a disabled fault config
// injects nothing and costs nothing.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/stats"
)

// Config tunes a Server. The zero value serves correctly: one worker,
// queue depth 256, no fault injection.
type Config struct {
	// Workers is the number of workers pulling from the shared queue. Each
	// answers one request at a time, so this bounds the number of
	// concurrent detections. 0 means 1.
	Workers int
	// QueueDepth bounds the request queue; a full queue sheds load with
	// ErrBusy. 0 means defaultQueueDepth.
	QueueDepth int
	// Fault, when enabled, injects the request-level fault classes
	// (dropout, corruption) into live traffic before detection, drawing
	// from per-worker streams split from FaultSeed. Responses report what
	// was injected; the confidence score degrades exactly as it does under
	// the probe-side plane.
	Fault fault.Config
	// FaultSeed seeds the fault plane's RNG streams.
	FaultSeed uint64
}

// defaultQueueDepth is the queue bound a zero Config.QueueDepth selects.
const defaultQueueDepth = 256

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = defaultQueueDepth
	}
	return c
}

// Sentinel errors of the request path.
var (
	// ErrBusy is the load-shedding error: the queue is full and the
	// request was dropped without being enqueued. Retryable.
	ErrBusy = errors.New("serve: queue full, request shed")
	// ErrClosed reports a request submitted after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrBadRequest wraps request-validation failures (length mismatch,
	// non-finite or out-of-range observed values).
	ErrBadRequest = errors.New("serve: bad request")
)

// Response is one answered detection query.
type Response struct {
	// ProfileDetection is the detector's answer: DetectProfile on the
	// request (after any fault injection).
	core.ProfileDetection
	// Snapshot is the version of the detector snapshot that answered; it
	// increases by one per Swap, starting at 1 for the construction-time
	// detector.
	Snapshot uint64
	// Dropped and Corrupted count the fault classes injected into this
	// request's profile before detection (always 0 with faults disabled).
	Dropped, Corrupted int
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Served   uint64 // requests answered
	Shed     uint64 // requests dropped with ErrBusy
	Rejected uint64 // requests failing validation
	// Batches and MaxBatch count detection passes and the largest one: one
	// request each, so Batches == Served and MaxBatch is 1 once anything is
	// served. They remain only because the frozen benchmark/layers.go
	// divides by them, and go when a benchmark PR retires serve.batch_*.
	Batches   uint64
	MaxBatch  uint64
	Dropped   uint64 // fault plane: entries dropped from live requests
	Corrupted uint64 // fault plane: entries corrupted in live requests
	Swaps     uint64 // snapshot swaps since construction
}

// snapshot is one immutable detector generation. Workers load it once per
// request; Swap installs a successor without disturbing loads in flight.
type snapshot struct {
	det     *core.Detector
	version uint64
	n       int // resource count, cached for request validation
}

// call is one in-flight request. Calls are pooled: the done channel and the
// observed/known buffers are reused across requests, so the steady-state
// submit path allocates nothing.
type call struct {
	observed []float64
	known    []bool
	resp     Response
	err      error
	done     chan struct{} // buffered 1; worker sends exactly once per cycle
}

// Server is the long-running detection service. Construct with New, submit
// with Detect (safe for any number of goroutines), retire with Close.
type Server struct {
	cfg   Config
	snap  atomic.Pointer[snapshot]
	queue chan *call
	pool  sync.Pool

	// mu guards closed and orders Detect's queue sends before Close's
	// close(queue); workers hold neither.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	served, shed, rejected atomic.Uint64
	dropped, corrupted     atomic.Uint64
	swaps                  atomic.Uint64
}

// New builds and starts a Server answering from det. The detector must
// already be trained (it is immutable, per the core.Detector contract);
// train on another goroutine and Swap to replace it later.
func New(det *core.Detector, cfg Config) *Server {
	s := newServer(det, cfg)
	s.start()
	return s
}

// newServer builds the server without starting its workers; split from New
// so white-box tests can exercise the submit path against a quiescent
// queue.
func newServer(det *core.Detector, cfg Config) *Server {
	if det == nil {
		panic("serve: New(nil detector)")
	}
	cfg = cfg.withDefaults()
	n := det.Rec.ResourceCount()
	s := &Server{
		cfg:   cfg,
		queue: make(chan *call, cfg.QueueDepth),
	}
	s.snap.Store(&snapshot{det: det, version: 1, n: n})
	s.pool.New = func() any {
		return &call{
			observed: make([]float64, n),
			known:    make([]bool, n),
			done:     make(chan struct{}, 1),
		}
	}
	return s
}

// start launches the workers. Per-worker fault planes are split in
// worker order: a Plane is single-owner (like an adversary's), and giving
// each worker its own stream keeps injection decisions independent of which
// worker drains which request.
func (s *Server) start() {
	rng := stats.NewRNG(s.cfg.FaultSeed)
	planes := make([]*fault.Plane, s.cfg.Workers)
	for i := range planes {
		planes[i] = fault.New(s.cfg.Fault, rng.Split())
	}
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker(planes[i])
	}
}

// Snapshot returns the current detector and its version. The detector is
// shared and immutable; treat it as read-only.
func (s *Server) Snapshot() (*core.Detector, uint64) {
	sn := s.snap.Load()
	return sn.det, sn.version
}

// Swap installs det as the new answering snapshot, RCU-style: requests
// picked up after the swap see the new detector, a request already being
// answered keeps the snapshot it loaded, and nothing blocks. It returns the
// new snapshot's version. The new detector must expect the same resource
// count as the current one — requests are validated against the snapshot
// at submit time, so a width change would invalidate queued requests.
func (s *Server) Swap(det *core.Detector) uint64 {
	if det == nil {
		panic("serve: Swap(nil detector)")
	}
	n := det.Rec.ResourceCount()
	for {
		cur := s.snap.Load()
		if n != cur.n {
			panic(fmt.Sprintf("serve: Swap detector expects %d resources, serving %d", n, cur.n))
		}
		next := &snapshot{det: det, version: cur.version + 1, n: n}
		if s.snap.CompareAndSwap(cur, next) {
			s.swaps.Add(1)
			return next.version
		}
	}
}

// Detect submits one query and blocks until it is answered or shed. The
// request slices are copied at submit time: the server never retains or
// mutates caller memory, and the returned Response owns all its data.
//
// Errors: ErrBusy when the queue is full (the request was not enqueued;
// retry or back off), ErrClosed after Close, and ErrBadRequest (wrapped,
// with detail) for malformed requests — mismatched lengths against the
// current snapshot, or a known entry that is NaN, infinite, or outside the
// [0, 100] pressure range.
func (s *Server) Detect(observed []float64, known []bool) (Response, error) {
	sn := s.snap.Load()
	if len(observed) != sn.n || len(known) != sn.n {
		s.rejected.Add(1)
		return Response{}, fmt.Errorf("%w: got %d observed / %d known entries, want %d",
			ErrBadRequest, len(observed), len(known), sn.n)
	}
	for j, k := range known {
		if !k {
			continue
		}
		if v := observed[j]; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 100 {
			s.rejected.Add(1)
			return Response{}, fmt.Errorf("%w: observed[%d] = %v outside the [0, 100] pressure range",
				ErrBadRequest, j, v)
		}
	}

	c := s.pool.Get().(*call)
	copy(c.observed, observed)
	copy(c.known, known)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.pool.Put(c)
		return Response{}, ErrClosed
	}
	select {
	case s.queue <- c:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.pool.Put(c)
		s.shed.Add(1)
		return Response{}, ErrBusy
	}

	<-c.done
	resp, err := c.resp, c.err
	s.pool.Put(c)
	return resp, err
}

// Close stops accepting requests, drains and answers everything already
// queued, and waits for the workers to exit. Idempotent; concurrent Detect
// calls either complete normally or return ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns a point-in-time snapshot of the server's counters.
func (s *Server) Stats() Stats {
	served := s.served.Load()
	return Stats{
		Served:    served,
		Shed:      s.shed.Load(),
		Rejected:  s.rejected.Load(),
		Batches:   served,
		MaxBatch:  min(served, 1),
		Dropped:   s.dropped.Load(),
		Corrupted: s.corrupted.Load(),
		Swaps:     s.swaps.Load(),
	}
}

// worker answers queued requests one at a time until the queue is closed
// and drained.
func (s *Server) worker(plane *fault.Plane) {
	defer s.wg.Done()
	for c := range s.queue {
		s.answer(c, plane)
	}
}

// answer serves one request: load the snapshot (the RCU read), run the
// worker's fault plane over the request, detect, and reply.
func (s *Server) answer(c *call, plane *fault.Plane) {
	sn := s.snap.Load()
	dropped, corrupted := 0, 0
	if plane.Enabled() {
		dropped, corrupted = plane.FaultProfile(c.observed, c.known)
		s.dropped.Add(uint64(dropped))
		s.corrupted.Add(uint64(corrupted))
	}
	c.resp = Response{
		ProfileDetection: sn.det.DetectProfile(c.observed, c.known),
		Snapshot:         sn.version,
		Dropped:          dropped,
		Corrupted:        corrupted,
	}
	c.err = nil
	s.served.Add(1)
	c.done <- struct{}{}
}
