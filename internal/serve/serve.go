// Package serve promotes detection from batch experiments to a long-running
// service. A Server answers profile-only detection queries (an observed
// victim pressure vector plus its known mask) from an immutable trained
// detector snapshot: the goroutine that calls Detect answers its own query
// through core.Detector.DetectProfile once it holds one of the server's
// detection slots.
//
// Three contracts define the serving plane (see DESIGN.md "Serving plane"):
//
//   - RCU snapshots. The trained detector is held behind an
//     atomic.Pointer and replaced wholesale by Swap. A core.Detector is
//     immutable once core.Train returns, which makes the read side lock-free:
//     a caller loads the pointer once per request, and a request in flight
//     keeps answering from the snapshot it loaded while a background
//     retrain installs the next one. Nothing is ever mutated in place, so
//     there is no quiescence protocol to get wrong.
//
//   - Bounded admission with load shedding. At most Workers queries are
//     detected at once and at most QueueDepth more callers wait for a slot;
//     beyond that, Detect fails fast with ErrBusy instead of waiting
//     unboundedly. Overload degrades throughput, never memory.
//
//   - Bit-exactness. A served answer is bit-identical to a direct
//     core.Detector.DetectProfile call at every worker count, by
//     construction: that call is what Detect makes. The serve parity
//     test pins it at the service boundary.
//
// The request path draws no randomness. The only RNG in the package feeds
// the optional fault plane (Config.Fault), which perturbs live traffic the
// way the probe-side plane perturbs simulated probes — and a disabled fault
// config injects nothing and costs nothing.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/stats"
)

// Config tunes a Server. The zero value serves correctly: one slot, room
// for 256 waiting callers, no fault injection.
type Config struct {
	// Workers is the number of detection slots, so it bounds the number of
	// concurrent detections. 0 means 1.
	Workers int
	// QueueDepth bounds how many callers may wait for a slot; a caller
	// beyond it is shed with ErrBusy. 0 means defaultQueueDepth.
	QueueDepth int
	// Fault, when enabled, injects the request-level fault classes
	// (dropout, corruption) into live traffic before detection, drawing
	// from per-slot streams split from FaultSeed. Responses report what
	// was injected; the confidence score degrades exactly as it does under
	// the probe-side plane.
	Fault fault.Config
	// FaultSeed seeds the fault plane's RNG streams.
	FaultSeed uint64
}

// defaultQueueDepth is the wait bound a zero Config.QueueDepth selects.
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
	// ErrBusy is the load-shedding error: every slot is taken and
	// QueueDepth callers already wait, so the request was dropped without
	// being admitted. Retryable.
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

// snapshot is one immutable detector generation. A caller loads it once per
// request; Swap installs a successor without disturbing loads in flight.
type snapshot struct {
	det     *core.Detector
	version uint64
}

// slot is what one concurrent detection owns: its fault plane (single-owner,
// like an adversary's) and the buffers a request is copied into before the
// plane faults it, so injection never touches caller memory.
type slot struct {
	plane    *fault.Plane
	observed []float64
	known    []bool
}

// Server is the long-running detection service. Construct with New, submit
// with Detect (safe for any number of goroutines), retire with Close.
type Server struct {
	n     int   // resource count every snapshot expects; Swap keeps it fixed
	limit int64 // callers admitted at once: Workers + QueueDepth
	snap  atomic.Pointer[snapshot]
	// slots holds the idle slots; a caller takes one for its detection and
	// puts it back. Close takes them all, then closes the channel.
	slots     chan *slot
	closed    atomic.Bool
	closeOnce sync.Once

	admitted               atomic.Int64 // callers detecting or waiting for a slot
	served, shed, rejected atomic.Uint64
	dropped, corrupted     atomic.Uint64
	swaps                  atomic.Uint64
}

// New builds a Server answering from det. The detector must already be
// trained (it is immutable, per the core.Detector contract); train on
// another goroutine and Swap to replace it later. New starts no goroutines.
//
// Per-slot fault planes are split in slot order: giving each slot its own
// stream keeps injection decisions independent of which caller holds which
// slot.
func New(det *core.Detector, cfg Config) *Server {
	if det == nil {
		panic("serve: New(nil detector)")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		n:     det.Rec.ResourceCount(),
		limit: int64(cfg.Workers + cfg.QueueDepth),
		slots: make(chan *slot, cfg.Workers),
	}
	s.snap.Store(&snapshot{det: det, version: 1})
	rng := stats.NewRNG(cfg.FaultSeed)
	for range cfg.Workers {
		s.slots <- &slot{plane: fault.New(cfg.Fault, rng.Split())}
	}
	return s
}

// Snapshot returns the current detector and its version. The detector is
// shared and immutable; treat it as read-only.
func (s *Server) Snapshot() (*core.Detector, uint64) {
	sn := s.snap.Load()
	return sn.det, sn.version
}

// Swap installs det as the new answering snapshot, RCU-style: a request that
// takes its slot after the swap sees the new detector, a request already
// being answered keeps the snapshot it loaded, and nothing blocks. It
// returns the new snapshot's version. The new detector must expect the same
// resource count as the current one, since requests are validated against
// it before they wait for a slot; a nil detector or a different count is
// refused with an error, and the current snapshot keeps answering.
func (s *Server) Swap(det *core.Detector) (uint64, error) {
	if det == nil || det.Rec == nil {
		return 0, errors.New("serve: Swap refused a nil detector")
	}
	if n := det.Rec.ResourceCount(); n != s.n {
		return 0, fmt.Errorf("serve: Swap refused a detector expecting %d resources; serving %d", n, s.n)
	}
	for {
		cur := s.snap.Load()
		next := &snapshot{det: det, version: cur.version + 1}
		if s.snap.CompareAndSwap(cur, next) {
			s.swaps.Add(1)
			return next.version, nil
		}
	}
}

// Detect answers one query on the calling goroutine, waiting first for a
// free slot if all Workers are taken. The server never retains or mutates
// the request slices, and the returned Response owns all its data.
//
// Errors: ErrBusy when QueueDepth callers already wait (the request was not
// admitted; retry or back off), ErrClosed after Close, and ErrBadRequest
// (wrapped, with detail) for malformed requests — mismatched lengths
// against the served resource count, or a known entry that is NaN,
// infinite, or outside the [0, 100] pressure range.
func (s *Server) Detect(observed []float64, known []bool) (Response, error) {
	if len(observed) != s.n || len(known) != s.n {
		s.rejected.Add(1)
		return Response{}, fmt.Errorf("%w: got %d observed / %d known entries, want %d",
			ErrBadRequest, len(observed), len(known), s.n)
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

	if s.closed.Load() {
		return Response{}, ErrClosed
	}
	if s.admitted.Add(1) > s.limit {
		s.admitted.Add(-1)
		s.shed.Add(1)
		return Response{}, ErrBusy
	}
	defer s.admitted.Add(-1)
	sl, ok := <-s.slots
	if !ok {
		return Response{}, ErrClosed
	}
	resp := s.answer(sl, observed, known)
	s.slots <- sl
	if s.admitted.Load() > int64(cap(s.slots)) {
		// A caller waits for a slot, and the send made it runnable on this
		// processor, where it would sit out the rest of this caller's
		// request (over the wire: encode, write, read). Yield so the slot's
		// next detection starts now; DESIGN.md "Why the caller answers"
		// has the measurement.
		runtime.Gosched()
	}
	return resp, nil
}

// Close stops admitting requests, lets every admitted one finish, and
// returns once none is left. Idempotent; concurrent Detect calls either
// complete normally or return ErrClosed.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		for range cap(s.slots) {
			<-s.slots
		}
		// Every slot is held here, so no caller can send one back; callers
		// still waiting for one wake to ErrClosed.
		close(s.slots)
	})
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

// answer serves one request in the slot it holds: run the slot's fault
// plane over a copy of the request, load the snapshot (the RCU read), and
// detect.
func (s *Server) answer(sl *slot, observed []float64, known []bool) Response {
	dropped, corrupted := 0, 0
	if sl.plane.Enabled() {
		sl.observed = append(sl.observed[:0], observed...)
		sl.known = append(sl.known[:0], known...)
		observed, known = sl.observed, sl.known
		dropped, corrupted = sl.plane.FaultProfile(observed, known)
		s.dropped.Add(uint64(dropped))
		s.corrupted.Add(uint64(corrupted))
	}
	sn := s.snap.Load()
	resp := Response{
		ProfileDetection: sn.det.DetectProfile(observed, known),
		Snapshot:         sn.version,
		Dropped:          dropped,
		Corrupted:        corrupted,
	}
	s.served.Add(1)
	return resp
}
