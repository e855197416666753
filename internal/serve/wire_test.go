package serve_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bolt/internal/serve"
	"bolt/internal/stats"
)

// startWireServer builds a served detector behind a loopback listener and
// returns its address; everything tears down with the test.
func startWireServer(t *testing.T, cfg serve.Config) (string, *serve.Server) {
	t.Helper()
	srv := serve.New(testDetector(t), cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := serve.ServeListener(l, srv); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("ServeListener: %v", err)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
		srv.Close()
	})
	return l.Addr().String(), srv
}

// TestServeCloseLeavesNoGoroutines checks the socket path's goroutine
// lifetimes at run time: a Server starts none of its own, since callers
// answer their own queries, and once the clients, the listener and the
// Server are closed, the accept loop and every per-connection handler have
// exited, so the goroutine count returns to what it was before.
func TestServeCloseLeavesNoGoroutines(t *testing.T) {
	det := testDetector(t)
	n := det.Rec.ResourceCount()
	masks := testMasks(n)
	base := runtime.NumGoroutine()

	srv := serve.New(det, serve.Config{Workers: 2})
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("New started %d goroutines, want none", g-base)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	accepted := make(chan error, 1)
	go func() { accepted <- serve.ServeListener(l, srv) }()

	var wg sync.WaitGroup
	for _, rng := range stats.NewRNG(17).SplitN(4) {
		c, err := serve.Dial(l.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			for k := 0; k < 16; k++ {
				obs, known := genRequest(rng, masks, n)
				if wr, err := c.Detect(obs, known); err != nil || wr.Error != "" {
					t.Errorf("query %d: %v %q", k, err, wr.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
	l.Close()
	if err := <-accepted; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ServeListener: %v", err)
	}
	srv.Close()

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left after Close, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWireRoundTrip pins bit-exactness across the socket: JSON's
// shortest-round-trip float encoding must deliver exactly the pressure and
// similarity bits the solo detector path produces, plus the same label and
// confidence.
func TestWireRoundTrip(t *testing.T) {
	addr, _ := startWireServer(t, serve.Config{Workers: 2})
	det := testDetector(t)
	n := det.Rec.ResourceCount()
	masks := testMasks(n)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rng := stats.NewRNG(31)
	for k := 0; k < 32; k++ {
		obs, known := genRequest(rng, masks, n)
		wr, err := c.Detect(obs, known)
		if err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
		if wr.Error != "" {
			t.Fatalf("request %d: in-band error %q", k, wr.Error)
		}
		want := det.DetectProfile(obs, known)
		if wr.Label != want.Label() || wr.Confidence != want.Confidence {
			t.Fatalf("request %d: label/confidence (%q, %v) != solo (%q, %v)",
				k, wr.Label, wr.Confidence, want.Label(), want.Confidence)
		}
		best := want.Result.Best()
		if wr.Best != best.Label || wr.Similarity != best.Similarity {
			t.Fatalf("request %d: best match diverges from solo path", k)
		}
		if len(wr.Pressure) != n {
			t.Fatalf("request %d: pressure has %d entries, want %d", k, len(wr.Pressure), n)
		}
		for j := range wr.Pressure {
			if wr.Pressure[j] != want.Result.Pressure[j] {
				t.Fatalf("request %d: pressure[%d] lost bits over the wire: %v != %v",
					k, j, wr.Pressure[j], want.Result.Pressure[j])
			}
		}
		if wr.Snapshot != 1 {
			t.Fatalf("request %d: metadata snapshot=%d", k, wr.Snapshot)
		}
	}
}

// TestWireBadRequest: validation failures come back in-band so the
// connection survives, and the next request still works.
func TestWireBadRequest(t *testing.T) {
	addr, _ := startWireServer(t, serve.Config{})
	det := testDetector(t)
	n := det.Rec.ResourceCount()
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	wr, err := c.Detect(make([]float64, n-2), make([]bool, n-2))
	if err != nil {
		t.Fatalf("transport error on bad request: %v", err)
	}
	if !strings.Contains(wr.Error, "bad request") {
		t.Fatalf("error = %q, want a bad-request report", wr.Error)
	}
	if wr.Busy() {
		t.Fatal("bad request misreported as busy")
	}
	obs, known := genRequest(stats.NewRNG(5), testMasks(n), n)
	wr, err = c.Detect(obs, known)
	if err != nil || wr.Error != "" {
		t.Fatalf("connection did not survive a bad request: %v %q", err, wr.Error)
	}
}

// TestWireDropsBadLines: a line the strict decoder refuses — or one that
// never ends — costs the sender its connection, with nothing written back,
// and costs nobody else anything: the next connection is served.
func TestWireDropsBadLines(t *testing.T) {
	addr, _ := startWireServer(t, serve.Config{})
	det := testDetector(t)
	n := det.Rec.ResourceCount()
	obs, known := genRequest(stats.NewRNG(9), testMasks(n), n)
	good := func() string {
		line, err := json.Marshal(serve.WireRequest{ID: 1, Observed: obs, Known: known})
		if err != nil {
			t.Fatal(err)
		}
		return string(line)
	}()
	withObserved := func(array string) string {
		return `{"id":1,"observed":` + array + `,"known":[true]}` + "\n"
	}
	for name, c := range map[string]struct {
		send      string
		halfClose bool
	}{
		"oversized line":      {send: strings.Repeat(" ", 1<<20)},
		"garbage":             {send: "this is not json\n"},
		"trailing bytes":      {send: good + "x\n"},
		"two objects a line":  {send: good + good + "\n"},
		"duplicate key":       {send: good[:len(good)-1] + `,"id":2}` + "\n"},
		"unknown key":         {send: good[:len(good)-1] + `,"batch":4}` + "\n"},
		"case-folded key":     {send: strings.Replace(good, `"id"`, `"ID"`, 1) + "\n"},
		"number +1":           {send: withObserved("[+1]")},
		"number 01":           {send: withObserved("[01]")},
		"number NaN":          {send: withObserved("[NaN]")},
		"number 1e999":        {send: withObserved("[1e999]")},
		"half-close mid-line": {send: good[:len(good)/2], halfClose: true},
	} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			// A good request first: the connection works until the bad line.
			if _, err := conn.Write([]byte(good + "\n")); err != nil {
				t.Fatalf("write: %v", err)
			}
			r := bufio.NewReader(conn)
			if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, `{"id":1,"label":`) {
				t.Fatalf("good request answered %q, %v", line, err)
			}
			// The server may hang up while an oversized line is still being
			// written, so a write error is not a failure here.
			conn.Write([]byte(c.send))
			if c.halfClose {
				conn.(*net.TCPConn).CloseWrite()
			}
			rest, err := io.ReadAll(r)
			if len(rest) != 0 {
				t.Fatalf("server answered a bad line: %q", rest)
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("server kept the connection open")
			}

			c2, err := serve.Dial(addr)
			if err != nil {
				t.Fatalf("dial after drop: %v", err)
			}
			defer c2.Close()
			if wr, err := c2.Detect(obs, known); err != nil || wr.Error != "" {
				t.Fatalf("fresh connection not served: %v %q", err, wr.Error)
			}
		})
	}
}
