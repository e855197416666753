package serve_test

import (
	"errors"
	"net"
	"strings"
	"testing"

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

// TestWireMalformedJSON: a connection sending garbage is dropped.
func TestWireMalformedJSON(t *testing.T) {
	addr, _ := startWireServer(t, serve.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the server to drop the connection")
	}
}
