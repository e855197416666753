package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"bolt/internal/core"
	"bolt/internal/serve"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// socketClients is the closed-loop client count. Bolt's callers are
// adversary VMs that each wait for a label before their next probe, so the
// load is closed-loop by nature; and an open-loop schedule is not measurable
// on a small box, where time.Sleep(50µs) overshoots by several service times
// (load.sleep_overshoot_us reports by how much).
const socketClients = 2

// The correctness check keeps every verifyEvery-th answer of a client.
const verifyEvery = 16

// requestMasks is boltload's request mix: the canonical LLC/MemBW/NetBW
// probe mask, two partial variants, and a full observation.
func requestMasks(n int) [][]bool {
	masks := make([][]bool, 4)
	for i := range masks {
		masks[i] = make([]bool, n)
	}
	masks[0][3], masks[0][5], masks[0][7] = true, true, true
	masks[1][3], masks[1][5] = true, true
	masks[2][6], masks[2][7], masks[2][9] = true, true, true
	for j := range masks[3] {
		masks[3][j] = true
	}
	return masks
}

// nextRequest draws one request from the client's stream into obs/known and
// returns the index of its mask.
func nextRequest(rng *stats.RNG, masks [][]bool, obs []float64, known []bool) int {
	m := rng.Intn(len(masks))
	for j, k := range masks[m] {
		known[j] = k
		obs[j] = 0
		if k {
			obs[j] = stats.Clamp(rng.Range(0, 100), 0, 100)
		}
	}
	return m
}

// answer is the part of a served reply the correctness check compares.
type answer struct {
	label, best string
	similarity  float64
	pressure    []float64
}

func answerOf(pd *core.ProfileDetection) answer {
	best := pd.Result.Best()
	return answer{pd.Label(), best.Label, best.Similarity, pd.Result.Pressure}
}

// submitFn answers one query; a non-nil error is a failed operation.
type submitFn func(obs []float64, known []bool) (answer, error)

// socketFixture is a detection service on a loopback socket with its
// closed-loop clients connected and warmed.
type socketFixture struct {
	det     *core.Detector
	srv     *serve.Server
	ln      net.Listener
	served  chan error // ServeListener's return value
	clients []*serve.Client
	rngs    []*stats.RNG // one request stream per client, pre-split from the seed
	masks   [][]bool
}

// newSocketFixture is the serve_socket set-up: train the detector (uncached,
// as a fresh boltd pays it), start the server and its accept loop, connect
// the clients, and answer warm untimed queries.
func newSocketFixture(seed uint64, warm int) (*socketFixture, error) {
	det := core.Train(workload.TrainingSpecs(seed), core.Config{})
	fx := &socketFixture{
		det:    det,
		srv:    serve.New(det, serve.Config{}),
		served: make(chan error, 1),
		rngs:   stats.NewRNG(seed).SplitN(socketClients),
		masks:  requestMasks(det.Rec.ResourceCount()),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fx.srv.Close()
		return nil, err
	}
	fx.ln = ln
	go func() { fx.served <- serve.ServeListener(ln, fx.srv) }()
	for i := 0; i < socketClients; i++ {
		c, err := serve.Dial(ln.Addr().String())
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.clients = append(fx.clients, c)
	}
	if p := fx.run(fx.overSocket, warm/socketClients, nil, false); p.failed > 0 {
		fx.close()
		return nil, fmt.Errorf("serve_socket warm-up: %s", p.why)
	}
	return fx, nil
}

// close disconnects the clients, stops the accept loop and waits for it,
// then drains the server. Connection handlers end with their connection.
func (fx *socketFixture) close() {
	for _, c := range fx.clients {
		c.Close()
	}
	fx.ln.Close()
	<-fx.served
	fx.srv.Close()
}

// overSocket answers through client ci's NDJSON connection.
func (fx *socketFixture) overSocket(ci int) submitFn {
	c := fx.clients[ci]
	return func(obs []float64, known []bool) (answer, error) {
		wr, err := c.Detect(obs, known)
		if err != nil {
			return answer{}, err
		}
		if wr.Error != "" { // sheds (ErrBusy) count as failures too
			return answer{}, errors.New("in-band error: " + wr.Error)
		}
		return answer{wr.Label, wr.Best, wr.Similarity, wr.Pressure}, nil
	}
}

// inProcess answers through Server.Detect: same queue and workers, no wire.
func (fx *socketFixture) inProcess(int) submitFn {
	return func(obs []float64, known []bool) (answer, error) {
		resp, err := fx.srv.Detect(obs, known)
		if err != nil {
			return answer{}, err
		}
		return answerOf(&resp.ProfileDetection), nil
	}
}

// phase is one measured stretch of closed-loop load.
type phase struct {
	lat       []float64 // per-query latency in seconds, all clients pooled
	wall, cpu time.Duration
	attempted int
	failed    int
	why       string // the first failure
}

// kept is one query whose answer the correctness check recomputes.
type kept struct {
	obs  []float64
	mask int
	got  answer
}

// run drives every client closed-loop for perClient queries each and pools
// their samples. A query that errors is a failed operation and ends its
// client. With verify
// set, the kept answers are compared — after the clocks stop, so the check
// costs no measured CPU — against solo core.Detector.DetectProfile.
func (fx *socketFixture) run(path func(ci int) submitFn, perClient int, tr *tracer, verify bool) phase {
	type clientOut struct {
		lat       []float64
		keep      []kept
		attempted int
		err       error
	}
	out := make([]clientOut, socketClients)
	n := len(fx.masks[0])

	var wg sync.WaitGroup
	wall0, cpu0 := time.Now(), cpuNow()
	for ci := 0; ci < socketClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			pc := &out[ci]
			submit, rng := path(ci), fx.rngs[ci]
			obs, known := make([]float64, n), make([]bool, n)
			clientSpan := tr.begin("client", 0, ci)
			defer tr.end(clientSpan)
			for k := 0; k < perClient; k++ {
				m := nextRequest(rng, fx.masks, obs, known)
				id := tr.begin("serve.Detect", clientSpan, k)
				t0 := time.Now()
				got, err := submit(obs, known)
				t1 := time.Now()
				tr.end(id)
				pc.attempted++
				if err != nil {
					pc.err = err
					return
				}
				pc.lat = append(pc.lat, t1.Sub(t0).Seconds())
				if verify && k%verifyEvery == 0 {
					pc.keep = append(pc.keep, kept{append([]float64(nil), obs...), m, got})
				}
			}
		}(ci)
	}
	wg.Wait()
	p := phase{wall: time.Since(wall0), cpu: cpuNow() - cpu0}

	fail := func(why string) {
		if p.failed++; p.why == "" {
			p.why = why
		}
	}
	for ci := range out {
		pc := &out[ci]
		p.lat = append(p.lat, pc.lat...)
		p.attempted += pc.attempted
		if pc.err != nil {
			fail(fmt.Sprintf("client %d: %v", ci, pc.err))
		}
		for _, q := range pc.keep {
			pd := fx.det.DetectProfile(q.obs, fx.masks[q.mask])
			if want := answerOf(&pd); !sameAnswer(q.got, want) {
				fail(fmt.Sprintf("client %d: served %+v, solo DetectProfile %+v", ci, q.got, want))
			}
		}
	}
	return p
}

func sameAnswer(a, b answer) bool {
	if a.label != b.label || a.best != b.best || a.similarity != b.similarity || len(a.pressure) != len(b.pressure) {
		return false
	}
	for i := range a.pressure {
		if a.pressure[i] != b.pressure[i] {
			return false
		}
	}
	return true
}
