// Command boltd runs the detection service as a long-lived daemon: it
// trains a detector, then answers newline-delimited JSON detection queries
// over TCP (see internal/serve's wire protocol): each connection's handler
// answers its own requests, at most -workers of them detecting at once, from
// an immutable RCU-style detector snapshot.
//
// Usage:
//
//	boltd [-addr host:port] [-seed N] [-workers N] [-queue N]
//	      [-faultrate R] [-faultseed N] [-retrain dur]
//
// -workers and -queue are the serving-plane knobs (internal/serve.Config);
// -faultrate enables the request-level fault plane on live traffic, drawing
// from -faultseed. With -retrain > 0 the daemon periodically retrains in
// the background on a reseeded training set and swaps the new detector in
// atomically — a request in flight finishes on the snapshot it loaded, the
// next one sees the new generation. SIGINT or SIGTERM stops accepting
// connections, lets admitted requests finish, and prints the serving
// counters to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/serve"
	"bolt/internal/workload"
)

func main() {
	os.Exit(run())
}

// checkFlags refuses a server of no detection slots, which would serve
// from one while reporting none, a negative queue depth, a -faultrate
// outside [0, 1] or NaN, which the fault plane would silently clamp into
// a rate no one asked for, or a negative -retrain period.
func checkFlags(workers, queue int, faultrate float64, retrain time.Duration) error {
	if workers < 1 || queue < 0 {
		return fmt.Errorf("-workers %d -queue %d: want 1 slot or more and a queue of 0 (the default) or more", workers, queue)
	}
	if !(faultrate >= 0 && faultrate <= 1) { // NaN fails both
		return fmt.Errorf("-faultrate %v: want a rate in [0, 1]", faultrate)
	}
	if retrain < 0 {
		return fmt.Errorf("-retrain %v: want a period of 0 (never) or more", retrain)
	}
	return nil
}

// retrainOnce runs one retrain generation: it trains a detector on the
// training seed and swaps it into srv, logging the outcome to log. A train
// that panics or a refused swap is logged and changes nothing, so the
// previous snapshot keeps serving and the next generation tries again.
func retrainOnce(srv *serve.Server, train func(seed uint64) *core.Detector, seed uint64, log io.Writer) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(log, "boltd: retrain (training seed %d) panicked: %v; still serving the previous snapshot\n", seed, p)
		}
	}()
	v, err := srv.Swap(train(seed))
	if err != nil {
		fmt.Fprintf(log, "boltd: retrain (training seed %d): %v; still serving the previous snapshot\n", seed, err)
		return
	}
	fmt.Fprintf(log, "boltd: swapped in snapshot %d (training seed %d)\n", v, seed)
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:9412", "listen address")
	seed := flag.Uint64("seed", 42, "training-set seed for the initial detector")
	workers := flag.Int("workers", 1, "detection slots: requests answered at once")
	queue := flag.Int("queue", 0, "requests that may wait for a slot (0 = 256); one more sheds with ErrBusy")
	faultrate := flag.Float64("faultrate", 0, "request-level fault intensity in [0,1] (0 = no injection)")
	faultseed := flag.Uint64("faultseed", 1, "fault-plane RNG seed")
	retrain := flag.Duration("retrain", 0, "background retrain+swap period (0 = never)")
	flag.Parse()
	if err := checkFlags(*workers, *queue, *faultrate, *retrain); err != nil {
		fmt.Fprintf(os.Stderr, "boltd: %v\n", err)
		return 2
	}

	fmt.Fprintf(os.Stderr, "boltd: training detector (seed %d)...\n", *seed)
	//bolt:nolint detrand -- startup diagnostic only: the duration goes to stderr and never influences an answer
	t0 := time.Now()
	det := core.Train(workload.TrainingSpecs(*seed), core.Config{})
	//bolt:nolint detrand -- startup diagnostic only: the duration goes to stderr and never influences an answer
	fmt.Fprintf(os.Stderr, "boltd: trained in %v\n", time.Since(t0).Round(time.Millisecond))

	srv := serve.New(det, serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Fault:      fault.Config{Rate: *faultrate},
		FaultSeed:  *faultseed,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boltd: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "boltd: serving on %s (workers=%d)\n", l.Addr(), *workers)

	// Background retrain loop: train off the serving path, swap atomically.
	// Each generation reseeds the training set so the swap is observable.
	// Each generation is a new catalog, so nothing could share its
	// training: Train, not the process-wide TrainCached memo, lets the
	// replaced generation be collected.
	train := func(trainingSeed uint64) *core.Detector {
		return core.Train(workload.TrainingSpecs(trainingSeed), core.Config{})
	}
	stopRetrain := make(chan struct{})
	retrainDone := make(chan struct{})
	go func() {
		defer close(retrainDone)
		if *retrain <= 0 {
			return
		}
		ticker := time.NewTicker(*retrain)
		defer ticker.Stop()
		for gen := uint64(1); ; gen++ {
			select {
			case <-stopRetrain:
				return
			case <-ticker.C:
			}
			retrainOnce(srv, train, *seed+gen, os.Stderr)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve.ServeListener(l, srv) }()

	code := 0
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "boltd: %v, draining\n", s)
		l.Close()
		<-serveErr
	case err := <-serveErr:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(os.Stderr, "boltd: accept: %v\n", err)
			code = 1
		}
	}
	close(stopRetrain)
	<-retrainDone
	srv.Close()

	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"boltd: served=%d shed=%d rejected=%d dropped=%d corrupted=%d swaps=%d\n",
		st.Served, st.Shed, st.Rejected, st.Dropped, st.Corrupted, st.Swaps)
	return code
}
