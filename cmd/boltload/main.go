// Command boltload drives a boltd-style detection service with closed-loop
// clients and reports throughput and latency percentiles in Go benchmark
// format, one line per swept configuration:
//
//	BenchmarkBoltload/inproc/w2/c16  1048576  1180 ns/op  846000 qps  ...
//
// Usage:
//
//	boltload [-mode inproc|socket] [-addr host:port] [-workers CSV]
//	         [-clients CSV] [-requests N] [-queue N] [-seed N]
//	         [-faultrate R]
//
// The sweep is the cross product of the -workers and -clients CSV lists. In
// inproc mode each configuration builds its own serve.Server and clients
// submit through Server.Detect; in socket mode clients speak the
// NDJSON wire protocol — to -addr if given, else to a private loopback
// server built per configuration (so one process still exercises the full
// TCP path). Clients are closed-loop: each keeps exactly one request in
// flight, retrying (and counting) ErrBusy sheds. Every client draws its
// request stream from a pre-split RNG, so the offered workload is
// deterministic per seed regardless of scheduling.
//
// Emitted metrics per line: iterations (requests answered), ns/op
// (wall time / answered), qps, p50-us/p90-us/p99-us/max-us (per-request
// latency percentiles over all clients, microseconds), and shed (busy
// rejections retried). cmd/benchjson -exec parses these lines into
// BENCH_serve.json.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/par"
	"bolt/internal/serve"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

func main() {
	os.Exit(run())
}

// checkFlags refuses a sweep of no requests, which has no latency to
// report, a negative queue depth, or a -faultrate outside [0, 1] or NaN,
// which the fault plane would silently clamp into a rate no one asked
// for.
func checkFlags(requests, queue int, faultrate float64) error {
	if requests < 1 || queue < 0 {
		return fmt.Errorf("-requests %d -queue %d: want 1 request or more and a queue of 0 (the default) or more", requests, queue)
	}
	if !(faultrate >= 0 && faultrate <= 1) { // NaN fails both
		return fmt.Errorf("-faultrate %v: want a rate in [0, 1]", faultrate)
	}
	return nil
}

func run() int {
	mode := flag.String("mode", "inproc", "inproc (Server.Detect) or socket (NDJSON over TCP)")
	addr := flag.String("addr", "", "socket mode: external server address (empty = private loopback server)")
	workersCSV := flag.String("workers", "1,2", "CSV of worker counts to sweep")
	clientsCSV := flag.String("clients", "16", "CSV of closed-loop client counts to sweep")
	requests := flag.Int("requests", 65536, "requests answered per configuration")
	queue := flag.Int("queue", 0, "requests that may wait for a slot (0 = 256)")
	seed := flag.Uint64("seed", 42, "workload seed (training set + request streams)")
	faultrate := flag.Float64("faultrate", 0, "request-level fault intensity in [0,1]")
	flag.Parse()

	if *mode != "inproc" && *mode != "socket" {
		fmt.Fprintf(os.Stderr, "boltload: unknown -mode %q\n", *mode)
		return 2
	}
	workers, err1 := parseCSV(*workersCSV)
	clients, err2 := parseCSV(*clientsCSV)
	for _, err := range []error{err1, err2, checkFlags(*requests, *queue, *faultrate)} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "boltload: %v\n", err)
			return 2
		}
	}

	fmt.Fprintf(os.Stderr, "boltload: training detector (seed %d)...\n", *seed)
	det := core.Train(workload.TrainingSpecs(*seed), core.Config{})
	n := det.Rec.ResourceCount()

	fmt.Printf("goos: %s\n", runtime.GOOS)
	fmt.Printf("goarch: %s\n", runtime.GOARCH)
	fmt.Printf("pkg: bolt/cmd/boltload\n")

	root := stats.NewRNG(*seed)
	for _, w := range workers {
		for _, c := range clients {
			cfg := serve.Config{
				Workers:    w,
				QueueDepth: *queue,
				Fault:      fault.Config{Rate: *faultrate},
				FaultSeed:  *seed,
			}
			res, err := runConfig(*mode, *addr, det, n, cfg, c, *requests, root.SplitN(c))
			if err != nil {
				fmt.Fprintf(os.Stderr, "boltload: %s/w%d/c%d: %v\n", *mode, w, c, err)
				return 1
			}
			fmt.Printf("BenchmarkBoltload/%s/w%d/c%d\t%8d\t%8.0f ns/op\t%10.0f qps\t%8.1f p50-us\t%8.1f p90-us\t%8.1f p99-us\t%8.1f max-us\t%6d shed\n",
				*mode, w, c, res.served, res.nsPerOp, res.qps,
				res.p50, res.p90, res.p99, res.max, res.shed)
		}
	}
	return 0
}

func parseCSV(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad CSV entry %q (want positive integers)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// result is one configuration's measurement.
type result struct {
	served        int
	shed          uint64
	nsPerOp, qps  float64
	p50, p90, p99 float64 // microseconds
	max           float64
}

// submitter answers one request; busy is a retryable shed.
type submitter func(obs []float64, known []bool) (busy bool, err error)

// runConfig measures one (workers, clients) point: it builds the
// target (in-process server, loopback server, or external address), fans
// out the closed-loop clients, and merges their latency samples.
func runConfig(mode, addr string, det *core.Detector, n int, cfg serve.Config, clients, requests int, rngs []*stats.RNG) (result, error) {
	var submitFor func(ci int) (submitter, func(), error)
	var teardown func()
	switch {
	case mode == "inproc":
		srv := serve.New(det, cfg)
		teardown = srv.Close
		submitFor = func(int) (submitter, func(), error) {
			return func(obs []float64, known []bool) (bool, error) {
				_, err := srv.Detect(obs, known)
				if err == serve.ErrBusy {
					return true, nil
				}
				return false, err
			}, func() {}, nil
		}
	case addr == "": // socket mode against a private loopback server
		srv := serve.New(det, cfg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return result{}, err
		}
		// The accept loop is fire-and-forget by design: it exits when
		// teardown closes the listener, and handleConn goroutines are
		// connection-bounded (see serve.ServeListener).
		go serve.ServeListener(l, srv)
		teardown = func() { l.Close(); srv.Close() }
		addr = l.Addr().String()
		fallthrough
	default: // socket mode against addr
		target := addr
		submitFor = func(int) (submitter, func(), error) {
			cl, err := serve.Dial(target)
			if err != nil {
				return nil, nil, err
			}
			return func(obs []float64, known []bool) (bool, error) {
				wr, err := cl.Detect(obs, known)
				if err != nil {
					return false, err
				}
				if wr.Busy() {
					return true, nil
				}
				if wr.Error != "" {
					return false, fmt.Errorf("in-band error: %s", wr.Error)
				}
				return false, nil
			}, func() { cl.Close() }, nil
		}
	}
	if teardown != nil {
		defer teardown()
	}

	masks := requestMasks(n)
	perClient := make([]int, clients)
	for i := 0; i < requests; i++ {
		perClient[i%clients]++
	}
	lats := make([][]time.Duration, clients)
	sheds := make([]uint64, clients)
	errs := make([]error, clients)

	// Wall-clock reads below are boltload's product, not a contamination:
	// the tool exists to measure real latency and throughput. The
	// deterministic half of its output (served/shed counts, request
	// streams) flows from the seeded RNGs alone.
	//bolt:nolint detrand -- measuring wall time is the load generator's purpose
	start := time.Now()
	par.FanOut(clients, clients, func(i int) string {
		return fmt.Sprintf("boltload client %d", i)
	}, func(ci int) {
		submit, done, err := submitFor(ci)
		if err != nil {
			errs[ci] = err
			return
		}
		defer done()
		rng := rngs[ci]
		obs := make([]float64, n)
		known := make([]bool, n)
		lat := make([]time.Duration, 0, perClient[ci])
		for k := 0; k < perClient[ci]; k++ {
			mask := masks[rng.Intn(len(masks))]
			for j := range obs {
				known[j] = mask[j]
				obs[j] = 0
				if mask[j] {
					obs[j] = stats.Clamp(rng.Range(0, 100), 0, 100)
				}
			}
			for {
				//bolt:nolint detrand -- measuring per-request latency is the load generator's purpose
				t0 := time.Now()
				busy, err := submit(obs, known)
				if err != nil {
					errs[ci] = err
					return
				}
				if !busy {
					//bolt:nolint detrand -- measuring per-request latency is the load generator's purpose
					lat = append(lat, time.Since(t0))
					break
				}
				sheds[ci]++
			}
		}
		lats[ci] = lat
	})
	//bolt:nolint detrand -- measuring wall time is the load generator's purpose
	wall := time.Since(start)

	var shed uint64
	served := 0
	all := make([]time.Duration, 0, requests)
	for ci := range lats {
		if errs[ci] != nil {
			return result{}, errs[ci]
		}
		served += len(lats[ci])
		all = append(all, lats[ci]...)
		shed += sheds[ci]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return result{
		served:  served,
		shed:    shed,
		nsPerOp: float64(wall.Nanoseconds()) / float64(served),
		qps:     float64(served) / wall.Seconds(),
		p50:     percentileUS(all, 50),
		p90:     percentileUS(all, 90),
		p99:     percentileUS(all, 99),
		max:     percentileUS(all, 100),
	}, nil
}

// percentileUS returns the p-th percentile of the sorted samples in
// microseconds (nearest-rank on the sorted slice).
func percentileUS(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return float64(sorted[idx].Nanoseconds()) / 1e3
}

// requestMasks are the observation shapes offered load mixes: the canonical
// LLC/MemBW/NetBW probe mask, two partial variants, and a full observation.
func requestMasks(n int) [][]bool {
	masks := make([][]bool, 4)
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
