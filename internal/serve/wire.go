// Wire protocol: newline-delimited JSON over a stream socket, one request
// per line, one response per line, answered in request order per
// connection; concurrency comes from many connections sharing the server's
// detection slots. A message is one flat JSON object on one line of at most
// maxLineBytes, its keys in any order, JSON whitespace anywhere; wirecodec.go
// holds the codec and states what it rejects. Floats travel as the shortest
// decimal that round-trips, so the bit-exactness contract survives the wire:
// a pressure or similarity value decoded by the client is the same float the
// detector produced. The bytes are exactly what encoding/json would write
// for the two structs below, and any JSON client can speak the protocol.
package serve

import (
	"bufio"
	"errors"
	"net"
)

// maxLineBytes bounds one wire line, newline included. A request for the
// paper's ten resources is under 300 bytes and a response under 500; the
// bound leaves room for a few hundred resources while keeping what one
// connection can make the server hold to a fixed buffer. A longer line
// drops the connection.
const maxLineBytes = 8 << 10

// WireRequest is one detection query on the wire. ID is echoed back
// verbatim so clients can correlate.
type WireRequest struct {
	ID       uint64    `json:"id"`
	Observed []float64 `json:"observed"`
	Known    []bool    `json:"known"`
}

// WireResponse is one answer on the wire: the graceful-degradation label,
// the completed pressure vector, the best match, and the serving metadata.
// Error carries the sentinel text of ErrBusy/ErrClosed or the validation
// detail; all other fields are zero when it is set.
type WireResponse struct {
	ID         uint64    `json:"id"`
	Label      string    `json:"label,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	Best       string    `json:"best,omitempty"`
	Similarity float64   `json:"similarity,omitempty"`
	Pressure   []float64 `json:"pressure,omitempty"`
	Snapshot   uint64    `json:"snapshot,omitempty"`
	Dropped    int       `json:"dropped,omitempty"`
	Corrupted  int       `json:"corrupted,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// Busy reports whether the response is the load-shedding error (retryable).
func (wr *WireResponse) Busy() bool { return wr.Error == ErrBusy.Error() }

// wireResponse flattens a served Response for the wire.
func wireResponse(id uint64, resp Response) WireResponse {
	best := resp.Result.Best()
	return WireResponse{
		ID:         id,
		Label:      resp.Label(),
		Confidence: resp.Confidence,
		Best:       best.Label,
		Similarity: best.Similarity,
		Pressure:   resp.Result.Pressure,
		Snapshot:   resp.Snapshot,
		Dropped:    resp.Dropped,
		Corrupted:  resp.Corrupted,
	}
}

// ServeListener accepts connections on l and serves each with handleConn
// until Accept fails (closing the listener is the shutdown signal). It
// returns Accept's error; callers that closed the listener deliberately
// treat it as a clean exit via errors.Is(err, net.ErrClosed).
func ServeListener(l net.Listener, s *Server) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		// Per-connection handlers are deliberately fire-and-forget: each
		// goroutine's lifetime is bounded by its connection (handleConn
		// defers conn.Close and exits on the first decode error), and the
		// only shared state it touches is Server.Detect, which answers
		// ErrClosed after Close. Joining them would make shutdown wait on
		// arbitrarily slow clients.
		go handleConn(conn, s)
	}
}

// handleConn serves one connection synchronously: decode a request line,
// answer it, write the response line. A line that does not decode
// (malformed, over maxLineBytes, cut short by EOF) drops the connection; a
// request error (busy, bad request) is reported in-band so the client can
// retry without reconnecting.
func handleConn(conn net.Conn, s *Server) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, maxLineBytes)
	var (
		dec decoder
		req WireRequest // its slices are reused; Server.Detect copies them
		buf []byte
	)
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return
		}
		if err := dec.request(line, &req); err != nil {
			return
		}
		var wr WireResponse
		resp, err := s.Detect(req.Observed, req.Known)
		if err != nil {
			wr = WireResponse{ID: req.ID, Error: err.Error()}
		} else {
			wr = wireResponse(req.ID, resp)
		}
		if buf, err = encodeResponse(buf, &wr); err != nil {
			return
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
}

// Client is a synchronous wire client: one in-flight request per Client.
// Use one Client per driving goroutine.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	dec  decoder
	buf  []byte
	resp WireResponse // decode target; its Pressure is scratch
	id   uint64
}

// Dial connects a Client to a boltd-style server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, maxLineBytes)}, nil
}

// Detect sends one query and blocks for its answer. A response whose Error
// field is set is returned with a nil error — in-band errors (busy, bad
// request) are the client's to handle; a non-nil error means the
// connection itself failed. The returned response owns its Pressure.
func (c *Client) Detect(observed []float64, known []bool) (WireResponse, error) {
	c.id++
	req := WireRequest{ID: c.id, Observed: observed, Known: known}
	var err error
	if c.buf, err = encodeRequest(c.buf, &req); err != nil {
		return WireResponse{}, err
	}
	if _, err := c.conn.Write(c.buf); err != nil {
		return WireResponse{}, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return WireResponse{}, err
	}
	if err := c.dec.response(line, &c.resp); err != nil {
		return WireResponse{}, err
	}
	if c.resp.ID != c.id {
		return WireResponse{}, errors.New("serve: response id mismatch")
	}
	wr := c.resp
	wr.Pressure = append([]float64(nil), c.resp.Pressure...)
	return wr, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }
