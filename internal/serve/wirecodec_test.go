package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"reflect"
	"testing"
	"unicode/utf8"

	"bolt/internal/core"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// edgeFloats are the values where encoding/json's float formatting changes
// shape: the 'f'/'e' switch at 1e-6 and 1e21 from both sides, the e-0X
// exponent clean-up, subnormals, the extremes, and both zeros.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 100, 99.99999999999999,
	1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 2.5e-100,
	1e21, 9.999999999999999e20, -1e21, 1.5e+22, 1e100,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	math.MaxInt64, 1 << 53, 0.000001234, 123456789.125,
}

// edgeRunes cover every class the string escaper distinguishes.
var edgeRunes = []string{
	"a", "z", " ", "hadoop:svm:L", `"`, `\`, "/", "<", ">", "&", "\x00", "\x1f",
	"\b", "\f", "\n", "\r", "\t", "\x7f", "é", "世", "😀", "\u2028", "\u2029",
	"\xff", "\xc3", "\xe4\xb8", "\xed\xa0\x80", "\ufffd",
}

func randFloat(rng *stats.RNG) float64 {
	switch rng.Intn(4) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN and Inf included
	case 2:
		return rng.Range(0, 100)
	default:
		return math.Ldexp(rng.Range(-1, 1), rng.Intn(160)-80)
	}
}

func randFloats(rng *stats.RNG) []float64 {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	xs := make([]float64, 1+rng.Intn(12))
	for i := range xs {
		xs[i] = randFloat(rng)
	}
	return xs
}

func randBools(rng *stats.RNG) []bool {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []bool{}
	}
	xs := make([]bool, 1+rng.Intn(12))
	for i := range xs {
		xs[i] = rng.Intn(2) == 0
	}
	return xs
}

func randString(rng *stats.RNG) string {
	var s string
	for k := rng.Intn(6); k > 0; k-- {
		s += edgeRunes[rng.Intn(len(edgeRunes))]
	}
	return s
}

// maybe returns v half the time and its type's zero value otherwise, so
// every omitempty field is seen both ways.
func maybe[T any](rng *stats.RNG, v T) T {
	if rng.Intn(2) == 0 {
		var zero T
		return zero
	}
	return v
}

func randRequest(rng *stats.RNG) WireRequest {
	return WireRequest{ID: maybe(rng, rng.Uint64()), Observed: randFloats(rng), Known: randBools(rng)}
}

func randResponse(rng *stats.RNG) WireResponse {
	return WireResponse{
		ID:         maybe(rng, rng.Uint64()),
		Label:      maybe(rng, randString(rng)),
		Confidence: maybe(rng, randFloat(rng)),
		Best:       maybe(rng, randString(rng)),
		Similarity: maybe(rng, randFloat(rng)),
		Pressure:   randFloats(rng),
		Snapshot:   maybe(rng, rng.Uint64()),
		Dropped:    maybe(rng, int(rng.Uint64())),
		Corrupted:  maybe(rng, rng.Intn(7)-3),
		Error:      maybe(rng, randString(rng)),
	}
}

// jsonLine is the reference encoding: what the wire carried when
// json.Encoder wrote it.
func jsonLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// TestWireEncodeMatchesJSON: the append encoder's output is byte-identical
// to json.Encoder's, and it refuses exactly the messages json.Encoder does
// (a NaN or an Inf anywhere).
func TestWireEncodeMatchesJSON(t *testing.T) {
	rng := stats.NewRNG(24)
	var buf []byte
	check := func(got []byte, gotErr error, v any) {
		t.Helper()
		want, wantErr := jsonLine(v)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%+v: encoder error %v, encoding/json error %v", v, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %q\nwant %q", v, got, want)
		}
	}
	for k := 0; k < 20000; k++ {
		req, wr := randRequest(rng), randResponse(rng)
		var err error
		buf, err = encodeRequest(buf, &req)
		check(buf, err, &req)
		buf, err = encodeResponse(buf, &wr)
		check(buf, err, &wr)
	}
	// Every edge value on its own, so none depends on the draw.
	for _, f := range edgeFloats {
		wr := WireResponse{Confidence: f, Similarity: -f, Pressure: []float64{f, -f}}
		var err error
		buf, err = encodeResponse(buf, &wr)
		check(buf, err, &wr)
	}
	for _, s := range edgeRunes {
		wr := WireResponse{Label: s, Best: "x" + s + "y", Error: s + s}
		var err error
		buf, err = encodeResponse(buf, &wr)
		check(buf, err, &wr)
	}
}

// floatBits makes float comparison exact (-0 is not +0) and NaN-proof.
func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs)) // nil and empty both become empty
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func sameRequest(a, b *WireRequest) bool {
	return a.ID == b.ID && reflect.DeepEqual(floatBits(a.Observed), floatBits(b.Observed)) &&
		reflect.DeepEqual(append([]bool{}, a.Known...), append([]bool{}, b.Known...))
}

func sameResponse(a, b *WireResponse) bool {
	x, y := *a, *b
	x.Pressure, y.Pressure = nil, nil
	x.Confidence, y.Confidence, x.Similarity, y.Similarity = 0, 0, 0, 0
	return reflect.DeepEqual(x, y) &&
		reflect.DeepEqual(floatBits(a.Pressure), floatBits(b.Pressure)) &&
		reflect.DeepEqual(floatBits([]float64{a.Confidence, a.Similarity}), floatBits([]float64{b.Confidence, b.Similarity}))
}

// strictOnlyReject names the documented reason, if there is one, for the
// strict decoder to reject a line that encoding/json accepts, judged
// independently of the decoder: the line is not UTF-8 (the only place JSON
// admits such bytes is inside a string), or a key of the top-level object
// is not exactly one of keys, or repeats. "" means the decoders must agree.
func strictOnlyReject(t *testing.T, line []byte, keys []string) string {
	if !utf8.Valid(line) {
		return "invalid UTF-8"
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	tok, err := dec.Token()
	if err != nil {
		t.Fatalf("json.Unmarshal accepted %q but Token failed: %v", line, err)
	}
	if tok == nil { // a null message
		return ""
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		key, ok := tok.(string)
		if err != nil || !ok {
			t.Fatalf("json.Unmarshal accepted %q but its keys do not tokenize: %v", line, err)
		}
		known := false
		for _, k := range keys {
			known = known || k == key
		}
		if !known {
			return "unknown or case-folded key " + key
		}
		if seen[key] {
			return "duplicate key " + key
		}
		seen[key] = true
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("json.Unmarshal accepted %q but a value does not decode: %v", line, err)
		}
	}
	return ""
}

// checkDecode is the differential oracle for one line of one message shape:
// what encoding/json rejects the strict decoder rejects; what encoding/json
// accepts it accepts with the same value, bit for bit — unless
// strictOnlyReject names a reason, and then it must reject.
func checkDecode[T any](t *testing.T, line []byte, keys []string, strict func([]byte, *T) error, got *T, same func(a, b *T) bool) {
	t.Helper()
	var want T
	jsonErr := json.Unmarshal(line, &want)
	err := strict(line, got)
	if jsonErr != nil {
		if err == nil {
			t.Fatalf("%q: encoding/json rejects (%v), strict decoder accepted %+v", line, jsonErr, *got)
		}
		return
	}
	switch why := strictOnlyReject(t, line, keys); {
	case why != "" && err == nil:
		t.Fatalf("%q: strict decoder accepted %+v despite %s", line, *got, why)
	case why == "" && err != nil:
		t.Fatalf("%q: encoding/json accepts %+v, strict decoder rejects for an undocumented reason: %v", line, want, err)
	case why == "" && !same(got, &want):
		t.Fatalf("%q: strict decoder %+v, encoding/json %+v", line, *got, want)
	}
}

func checkDecodeRequest(t *testing.T, dec *decoder, got *WireRequest, line []byte) {
	t.Helper()
	checkDecode(t, line, requestKeys[:], dec.request, got, sameRequest)
}

func checkDecodeResponse(t *testing.T, dec *decoder, got *WireResponse, line []byte) {
	t.Helper()
	checkDecode(t, line, responseKeys[:], dec.response, got, sameResponse)
}

// decodeSeeds are lines chosen to sit on each rule of the grammar; the
// fuzzers start from them and TestWireDecodeDifferential mutates them.
var decodeSeeds = []string{
	`{"id":7,"observed":[1,2.5,0,1e-7,-0,1E+2,0.5e-3],"known":[true,false,true]}` + "\n",
	` { "known" : [ ] , "observed" : null , "id" : 18446744073709551615 } ` + "\r\n",
	`{"id":3,"label":"hadoop:svm:L","confidence":0.75,"best":"spark","similarity":0.93,"pressure":[80.5,1e21,5e-324],"snapshot":2,"dropped":1,"corrupted":-0}`,
	`{"id":9,"error":"serve: bad request: a \"quoted\" \\ \/ \b\f\n\r\t \u00e9 \ud83d\ude00 \ud800 \udc00x \u2028 <é世>"}`,
	`null`, ` null `, `{}`, `{"id":null,"observed":[null,1],"known":[null,true]}`,
	`{"id":1,"id":2}`, `{"ID":1}`, `{"Id":1}`, `{"i\u0064":1}`, `{"idx":1}`, `{"observed":[1],"\u212anown":[]}`,
	`{"id":1}x`, `{"id":1}{"id":2}`, `{"id":1},`, `{"id":1,}`, `{,"id":1}`, `{"id" 1}`, `{"id":1 "known":[]}`,
	`{"id":01}`, `{"id":-1}`, `{"id":-0}`, `{"id":1.0}`, `{"id":1e2}`, `{"id":18446744073709551616}`, `{"id":"1"}`,
	`{"dropped":-9223372036854775808}`, `{"dropped":9223372036854775808}`, `{"dropped":-9223372036854775809}`, `{"dropped":1.5}`,
	`{"observed":[+1]}`, `{"observed":[01]}`, `{"observed":[NaN]}`, `{"observed":[Infinity]}`, `{"observed":[1e999]}`, `{"observed":[-1e999]}`,
	`{"observed":[1e-999]}`, `{"observed":[.5]}`, `{"observed":[1.]}`, `{"observed":[1e]}`, `{"observed":[1e+]}`, `{"observed":[-]}`, `{"observed":[0x10]}`, `{"observed":[1_0]}`,
	`{"observed":[1,]}`, `{"observed":[,1]}`, `{"observed":[1 2]}`, `{"observed":[1`, `{"observed":[[1]]}`, `{"observed":{"a":1}}`, `{"observed":"1"}`, `{"observed":1}`,
	`{"known":[1]}`, `{"known":[tru]}`, `{"known":["true"]}`, `{"known":[TRUE]}`, `{"known":[truefalse]}`,
	`{"label":"a` + "\x01" + `b"}`, `{"label":"a` + "\xff" + `b"}`, `{"label":"\xZZ"}`, `{"label":"\u12G4"}`, `{"label":"\u12"}`, `{"label":"abc`, `{"label":"abc\"}`, `{"label":'a'}`, `{"label":5}`,
	`{"label":"\ud800\u0041"}`, `{"label":"\ud800\udbff"}`, `{"label":"\udc00\ud800"}`, `{"label":"\ud800\ud800\udc00"}`, `{"label":"\uD83D\uDE00"}`,
	`{"la` + "\xff" + `bel":1}`, `{"":1}`, `{"id":1,"":2}`, `[]`, `5`, `"id"`, `true`, ``, ` `, `{`, `}`, `{"id"`, `{"id":`, `nul`, `nulll`,
}

// mutate returns line with a few bytes replaced, inserted or deleted,
// drawing replacements from the bytes JSON's grammar turns on.
func mutate(rng *stats.RNG, line []byte) []byte {
	const alphabet = `{}[]",:\/ ` + "\t\r\n" + `0123456789+-.eE_xXnulltruefalsNaIidkoKſ` + "\xff\xc3\x80\x00\x1f"
	out := append([]byte(nil), line...)
	for k := 1 + rng.Intn(3); k > 0 && len(out) > 0; k-- {
		at := rng.Intn(len(out))
		switch c := alphabet[rng.Intn(len(alphabet))]; rng.Intn(3) {
		case 0:
			out[at] = c
		case 1:
			out = append(out[:at], append([]byte{c}, out[at:]...)...)
		case 2:
			out = append(out[:at], out[at+1:]...)
		}
	}
	return out
}

// TestWireDecodeDifferential runs the fuzzers' oracle over the seeds,
// over encodings of random messages, and over mutations of both, so every
// `go test` holds the decoder to encoding/json without a fuzzing budget.
func TestWireDecodeDifferential(t *testing.T) {
	rng := stats.NewRNG(25)
	var (
		dec decoder
		req WireRequest
		wr  WireResponse
	)
	for _, s := range decodeSeeds {
		checkDecodeRequest(t, &dec, &req, []byte(s))
		checkDecodeResponse(t, &dec, &wr, []byte(s))
	}
	for k := 0; k < 30000; k++ {
		var line []byte
		switch rng.Intn(3) {
		case 0:
			v := randRequest(rng)
			line, _ = jsonLine(&v)
		case 1:
			v := randResponse(rng)
			line, _ = jsonLine(&v)
		case 2:
			line = []byte(decodeSeeds[rng.Intn(len(decodeSeeds))])
		}
		if rng.Intn(4) > 0 {
			line = mutate(rng, line)
		}
		checkDecodeRequest(t, &dec, &req, line)
		checkDecodeResponse(t, &dec, &wr, line)
	}
}

func FuzzWireDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var (
			dec decoder
			req WireRequest
		)
		checkDecodeRequest(t, &dec, &req, line)
		// And again into the now-used slices and scratch: reuse must not
		// change the answer.
		checkDecodeRequest(t, &dec, &req, line)
	})
}

func FuzzWireDecodeResponse(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var (
			dec decoder
			wr  WireResponse
		)
		checkDecodeResponse(t, &dec, &wr, line)
		checkDecodeResponse(t, &dec, &wr, line)
	})
}

// TestWireCodecAllocations pins the codec's steady state: with its buffers
// warm it allocates nothing, except the strings a decoded response owns.
func TestWireCodecAllocations(t *testing.T) {
	req := WireRequest{ID: 1 << 40, Observed: []float64{0, 0, 0, 61.25, 0, 17.5, 0, 93.0625, 0, 0},
		Known: []bool{false, false, false, true, false, true, false, true, false, false}}
	wr := WireResponse{ID: 1 << 40, Label: "hadoop", Confidence: 0.4375, Best: "hadoop:svm:L", Similarity: 0.8612,
		Pressure: []float64{12.5, 33.1, 8.25, 61.25, 40.0625, 17.5, 22.75, 93.0625, 3.5, 1.125}, Snapshot: 3}
	reqLine, _ := jsonLine(&req)
	wrLine, _ := jsonLine(&wr)
	var (
		buf     []byte
		dec     decoder
		gotReq  WireRequest
		gotResp WireResponse
	)
	for name, c := range map[string]struct {
		budget float64
		run    func()
	}{
		"encode request":  {0, func() { buf, _ = encodeRequest(buf, &req) }},
		"encode response": {0, func() { buf, _ = encodeResponse(buf, &wr) }},
		"decode request":  {0, func() { _ = dec.request(reqLine, &gotReq) }},
		"decode response": {2, func() { _ = dec.response(wrLine, &gotResp) }}, // Label and Best
	} {
		c.run() // size the buffers
		if allocs := testing.AllocsPerRun(200, c.run); allocs > c.budget {
			t.Errorf("%s allocated %.2f objects/op, budget is %v", name, allocs, c.budget)
		}
	}
	if !sameRequest(&gotReq, &req) || !sameResponse(&gotResp, &wr) {
		t.Fatalf("round trip changed the message: %+v / %+v", gotReq, gotResp)
	}
}

// TestWireRoundTripAllocationBudget pins one served query over loopback TCP,
// client and server together: the detector's three (Result, Pressure,
// Matches) and the client's three (Pressure, Label, Best). The plumbing
// between them — both codecs, the slot, the socket — adds none.
func TestWireRoundTripAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are inflated by design")
	}
	det := core.TrainCached(workload.TrainingSpecs(42), core.Config{})
	srv := New(det, Config{})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- ServeListener(l, srv) }()
	defer func() {
		l.Close()
		<-served
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	n := det.Rec.ResourceCount()
	obs, known := make([]float64, n), make([]bool, n)
	obs[3], obs[5], obs[7] = 61.25, 17.5, 93.0625
	known[3], known[5], known[7] = true, true, true
	query := func() {
		if wr, err := c.Detect(obs, known); err != nil || wr.Error != "" {
			t.Fatalf("round trip failed: %v %q", err, wr.Error)
		}
	}
	query() // size every buffer on both sides
	// A GC emptying a sync.Pool mid-run only nudges the average.
	if allocs := testing.AllocsPerRun(500, query); allocs > 7 {
		t.Errorf("served round trip allocated %.2f objects/op, budget is 6", allocs)
	}
}

// replay is an endless stream of one line, for a long-lived json.Decoder.
type replay struct {
	line []byte
	at   int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.line[r.at:])
	r.at = (r.at + n) % len(r.line)
	return n, nil
}

// BenchmarkWireCodec times each direction of each message at the served
// shape (ten resources). Beside each row is encoding/json as handleConn and
// Client used it before this codec — one long-lived Encoder or Decoder, a
// fresh destination struct per message — so the committed file carries the
// ratio.
func BenchmarkWireCodec(b *testing.B) {
	req := WireRequest{ID: 1 << 20, Observed: []float64{0, 0, 0, 61.27, 0, 17.53, 0, 93.06, 0, 0},
		Known: []bool{false, false, false, true, false, true, false, true, false, false}}
	wr := WireResponse{ID: 1 << 20, Label: "hadoop", Confidence: 0.4375, Best: "hadoop:svm:L", Similarity: 0.8612034120742534,
		Pressure: []float64{12.513, 33.172, 8.25, 61.27, 40.0625, 17.53, 22.75, 93.06, 3.5, 1.125}, Snapshot: 3}
	reqLine, _ := jsonLine(&req)
	wrLine, _ := jsonLine(&wr)
	var (
		buf     []byte
		dec     decoder
		gotReq  WireRequest
		gotResp WireResponse
		sink    bytes.Buffer
	)
	jsonEnc := json.NewEncoder(&sink)
	jsonReqs := json.NewDecoder(&replay{line: reqLine})
	jsonResps := json.NewDecoder(&replay{line: wrLine})
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"encode_req", func() (err error) { buf, err = encodeRequest(buf, &req); return }},
		{"encode_req_json", func() error { sink.Reset(); return jsonEnc.Encode(&req) }},
		{"encode_resp", func() (err error) { buf, err = encodeResponse(buf, &wr); return }},
		{"encode_resp_json", func() error { sink.Reset(); return jsonEnc.Encode(&wr) }},
		{"decode_req", func() error { return dec.request(reqLine, &gotReq) }},
		{"decode_req_json", func() error { var v WireRequest; return jsonReqs.Decode(&v) }},
		{"decode_resp", func() error { return dec.response(wrLine, &gotResp) }},
		{"decode_resp_json", func() error { var v WireResponse; return jsonResps.Decode(&v) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
