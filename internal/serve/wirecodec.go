package serve

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The codec for the two wire messages. Both are flat JSON objects with a
// fixed set of keys, so the encoder appends into a reused buffer and the
// decoder is a single pass over one line — no reflection, no intermediate
// tokens, and nothing allocated beyond what the caller keeps.
//
// The encoder's contract is byte-identity with json.Encoder on the same
// struct (TestWireEncodeMatchesJSON): same key order, same omitempty set,
// same float formatting, same HTML-safe string escaping. The decoder's is
// strictness (FuzzWireDecode): it accepts what encoding/json accepts for
// these structs, except that it rejects a key that is not exactly one of
// the message's (unknown or case-folded), a key that repeats, bytes after
// the object, and a string holding invalid UTF-8 — each of which
// encoding/json lets through, last-one-wins or patched, and none of which
// a well-formed peer sends.

// Codec errors. All are fatal to the connection they arrive on.
var (
	errMalformed    = errors.New("serve: malformed wire message")
	errUnknownKey   = errors.New("serve: unknown key in wire message")
	errDuplicateKey = errors.New("serve: duplicate key in wire message")
	errInvalidUTF8  = errors.New("serve: invalid UTF-8 in wire message")
	errOutOfRange   = errors.New("serve: number out of range in wire message")
	errNonFinite    = errors.New("serve: NaN or Inf has no wire encoding")
)

// The keys of each message, in struct (and therefore encoding) order; a
// decoded member is identified by its index here.
var (
	requestKeys  = [...]string{"id", "observed", "known"}
	responseKeys = [...]string{"id", "label", "confidence", "best", "similarity",
		"pressure", "snapshot", "dropped", "corrupted", "error"}
)

// asciiEscape maps each ASCII byte that json.Encoder escapes inside a
// string — controls, the quote, the backslash, and the HTML-sensitive
// <, > and & — to its escape; every other entry is empty.
var asciiEscape = func() (t [utf8.RuneSelf]string) {
	const hex = "0123456789abcdef"
	for _, c := range []byte(`<>&`) {
		t[c] = `\u00` + string(hex[c>>4]) + string(hex[c&0xf])
	}
	for c := 0; c < ' '; c++ {
		t[c] = `\u00` + string(hex[c>>4]) + string(hex[c&0xf])
	}
	t['\\'], t['"'] = `\\`, `\"`
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	return t
}()

// plainPrefix returns the length of the longest prefix of s that a JSON
// string carries verbatim.
//
//bolt:hotpath
func plainPrefix(s string) int {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiEscape[c] != "" {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return i
		}
		i += size
	}
	return len(s)
}

// escapeAt returns the escape for the character s starts with — one
// plainPrefix stopped at — and the number of bytes of s it replaces.
// Invalid UTF-8 becomes U+FFFD a byte at a time; U+2028 and U+2029 are
// escaped because JSONP consumers choke on them raw.
//
//bolt:hotpath
func escapeAt(s string) (string, int) {
	if s[0] < utf8.RuneSelf {
		return asciiEscape[s[0]], 1
	}
	switch r, size := utf8.DecodeRuneInString(s); r {
	case '\u2028':
		return `\u2028`, size
	case '\u2029':
		return `\u2029`, size
	default:
		return `\ufffd`, 1
	}
}

// appendFloat appends f the way encoding/json writes a float64: the
// shortest decimal that round-trips, in positional form for magnitudes in
// [1e-6, 1e21) and exponent form outside it, with a one-digit negative
// exponent unpadded. ok is false for NaN and ±Inf, which JSON cannot carry.
//
//bolt:hotpath
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b, true
}

// encodeRequest writes req and its newline over buf and returns the
// extended slice, or buf itself alongside an error.
//
//bolt:hotpath
func encodeRequest(buf []byte, req *WireRequest) ([]byte, error) {
	b := buf[:0]
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, req.ID, 10)
	b = append(b, `,"observed":`...)
	if req.Observed == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, x := range req.Observed {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendFloat(b, x); !ok {
				return buf, errNonFinite
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"known":`...)
	if req.Known == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, k := range req.Known {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, k)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// encodeResponse writes wr and its newline over buf and returns the
// extended slice, or buf itself alongside an error. Every field but the id
// is omitted at its zero value (-0 included, as encoding/json's omitempty
// has it).
//
//bolt:hotpath
func encodeResponse(buf []byte, wr *WireResponse) ([]byte, error) {
	b := buf[:0]
	finite := true
	str := func(key, s string) {
		if s == "" {
			return
		}
		b = append(b, key...)
		b = append(b, '"')
		for {
			n := plainPrefix(s)
			b = append(b, s[:n]...)
			if n == len(s) {
				break
			}
			esc, size := escapeAt(s[n:])
			b = append(b, esc...)
			s = s[n+size:]
		}
		b = append(b, '"')
	}
	float := func(key string, f float64) {
		if f == 0 {
			return
		}
		b = append(b, key...)
		var ok bool
		b, ok = appendFloat(b, f)
		finite = finite && ok
	}

	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, wr.ID, 10)
	str(`,"label":`, wr.Label)
	float(`,"confidence":`, wr.Confidence)
	str(`,"best":`, wr.Best)
	float(`,"similarity":`, wr.Similarity)
	if len(wr.Pressure) > 0 {
		b = append(b, `,"pressure":`...)
		b = append(b, '[')
		for i, x := range wr.Pressure {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			b, ok = appendFloat(b, x)
			finite = finite && ok
		}
		b = append(b, ']')
	}
	if wr.Snapshot != 0 {
		b = append(b, `,"snapshot":`...)
		b = strconv.AppendUint(b, wr.Snapshot, 10)
	}
	if wr.Dropped != 0 {
		b = append(b, `,"dropped":`...)
		b = strconv.AppendInt(b, int64(wr.Dropped), 10)
	}
	if wr.Corrupted != 0 {
		b = append(b, `,"corrupted":`...)
		b = strconv.AppendInt(b, int64(wr.Corrupted), 10)
	}
	str(`,"error":`, wr.Error)
	if !finite {
		return buf, errNonFinite
	}
	return append(b, "}\n"...), nil
}

// decoder is a cursor over one wire line. The zero value is ready; scratch
// (the unescape buffer) is all it keeps between lines.
type decoder struct {
	line    []byte
	i       int
	scratch []byte
}

// request decodes one request line into req, reusing req's slices. A JSON
// null, for the message or for any value, leaves the zero value, as
// encoding/json has it.
//
//bolt:hotpath
func (d *decoder) request(line []byte, req *WireRequest) error {
	req.ID, req.Observed, req.Known = 0, req.Observed[:0], req.Known[:0]
	if null, err := d.begin(line); null || err != nil {
		return err
	}
	var seen uint
	for {
		field, err := d.member(requestKeys[:], &seen)
		if err != nil {
			return err
		}
		switch field {
		case -1:
			return d.end()
		case 0:
			req.ID, err = d.uint()
		case 1:
			req.Observed, err = d.floats(req.Observed)
		case 2:
			req.Known, err = d.bools(req.Known)
		}
		if err != nil {
			return err
		}
	}
}

// response decodes one response line into wr, reusing wr.Pressure; the
// strings are fresh copies. null is treated as in request.
//
//bolt:hotpath
func (d *decoder) response(line []byte, wr *WireResponse) error {
	*wr = WireResponse{Pressure: wr.Pressure[:0]}
	if null, err := d.begin(line); null || err != nil {
		return err
	}
	var seen uint
	for {
		field, err := d.member(responseKeys[:], &seen)
		if err != nil {
			return err
		}
		switch field {
		case -1:
			return d.end()
		case 0:
			wr.ID, err = d.uint()
		case 1:
			wr.Label, err = d.text()
		case 2:
			wr.Confidence, err = d.float()
		case 3:
			wr.Best, err = d.text()
		case 4:
			wr.Similarity, err = d.float()
		case 5:
			wr.Pressure, err = d.floats(wr.Pressure)
		case 6:
			wr.Snapshot, err = d.uint()
		case 7:
			wr.Dropped, err = d.int()
		case 8:
			wr.Corrupted, err = d.int()
		case 9:
			wr.Error, err = d.text()
		}
		if err != nil {
			return err
		}
	}
}

// begin points the cursor at line and consumes the message's opening brace,
// or the whole of a null message.
//
//bolt:hotpath
func (d *decoder) begin(line []byte) (null bool, err error) {
	d.line, d.i = line, 0
	d.space()
	if d.null() {
		return true, d.end()
	}
	if !d.eat('{') {
		return false, errMalformed
	}
	return false, nil
}

// end requires that only whitespace remains.
//
//bolt:hotpath
func (d *decoder) end() error {
	d.space()
	if d.i != len(d.line) {
		return errMalformed
	}
	return nil
}

// member advances to the next member of the message object and returns its
// key's index in keys with the cursor on its value, or -1 once the closing
// brace is consumed. A key outside keys, or one whose bit is already in
// seen, is an error; seen starts at zero, which is also how member knows
// that no comma is due yet.
//
//bolt:hotpath
func (d *decoder) member(keys []string, seen *uint) (int, error) {
	d.space()
	if d.eat('}') {
		return -1, nil
	}
	if *seen != 0 {
		if !d.eat(',') {
			return 0, errMalformed
		}
		d.space()
	}
	key, err := d.str()
	if err != nil {
		return 0, err
	}
	d.space()
	if !d.eat(':') {
		return 0, errMalformed
	}
	d.space()
	for i, k := range keys {
		if string(key) == k {
			if *seen&(1<<i) != 0 {
				return 0, errDuplicateKey
			}
			*seen |= 1 << i
			return i, nil
		}
	}
	return 0, errUnknownKey
}

// space skips JSON whitespace.
//
//bolt:hotpath
func (d *decoder) space() {
	for d.i < len(d.line) {
		switch d.line[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
//
//bolt:hotpath
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.line) && d.line[d.i] == c {
		d.i++
		return true
	}
	return false
}

// word consumes w if the line continues with it.
//
//bolt:hotpath
func (d *decoder) word(w string) bool {
	if rest := d.line[d.i:]; len(rest) >= len(w) && string(rest[:len(w)]) == w {
		d.i += len(w)
		return true
	}
	return false
}

//bolt:hotpath
func (d *decoder) null() bool { return d.word("null") }

// intPart consumes the integer part of a JSON number — 0 alone, or a
// nonzero digit and any digits — and reports whether there was one.
//
//bolt:hotpath
func (d *decoder) intPart() bool {
	return d.eat('0') || d.digitRun()
}

// digitRun consumes [0-9]+ and reports whether there was at least one.
//
//bolt:hotpath
func (d *decoder) digitRun() bool {
	start := d.i
	for d.i < len(d.line) && d.line[d.i]-'0' <= 9 {
		d.i++
	}
	return d.i > start
}

// uint decodes an unsigned integer: bare digits only, as encoding/json
// demands of a uint64 field.
//
//bolt:hotpath
func (d *decoder) uint() (uint64, error) {
	if d.null() {
		return 0, nil
	}
	start := d.i
	if !d.intPart() {
		return 0, errMalformed
	}
	u, err := strconv.ParseUint(string(d.line[start:d.i]), 10, 64)
	if err != nil {
		return 0, errOutOfRange
	}
	return u, nil
}

// int decodes a signed integer: an optional minus and digits.
//
//bolt:hotpath
func (d *decoder) int() (int, error) {
	if d.null() {
		return 0, nil
	}
	start := d.i
	d.eat('-')
	if !d.intPart() {
		return 0, errMalformed
	}
	n, err := strconv.ParseInt(string(d.line[start:d.i]), 10, 0)
	if err != nil {
		return 0, errOutOfRange
	}
	return int(n), nil
}

// float decodes a number by the JSON grammar — -?(0|[1-9][0-9]*)(\.[0-9]+)?
// ([eE][+-]?[0-9]+)? — which is narrower than what strconv.ParseFloat
// takes (no +1, 01, .5, 1., NaN, Inf, hex or underscores), then lets
// ParseFloat round it. A literal that overflows float64 is an error, as it
// is for encoding/json.
//
//bolt:hotpath
func (d *decoder) float() (float64, error) {
	if d.null() {
		return 0, nil
	}
	start := d.i
	d.eat('-')
	if !d.intPart() {
		return 0, errMalformed
	}
	if d.eat('.') && !d.digitRun() {
		return 0, errMalformed
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if !d.digitRun() {
			return 0, errMalformed
		}
	}
	f, err := strconv.ParseFloat(string(d.line[start:d.i]), 64)
	if err != nil {
		return 0, errOutOfRange
	}
	return f, nil
}

// elem steps to the next element of an array of which n are decoded: past
// the opening bracket when n is 0, past a comma after that. It reports
// false once the closing bracket is consumed.
//
//bolt:hotpath
func (d *decoder) elem(n int) (bool, error) {
	open := byte(',')
	if n == 0 {
		open = '['
	} else {
		d.space()
		if d.eat(']') {
			return false, nil
		}
	}
	if !d.eat(open) {
		return false, errMalformed
	}
	d.space()
	if n == 0 && d.eat(']') {
		return false, nil
	}
	return true, nil
}

// floats decodes an array of numbers over dst.
//
//bolt:hotpath
func (d *decoder) floats(dst []float64) ([]float64, error) {
	dst = dst[:0]
	if d.null() {
		return dst, nil
	}
	for {
		more, err := d.elem(len(dst))
		if !more {
			return dst, err
		}
		f, err := d.float()
		if err != nil {
			return dst, err
		}
		dst = append(dst, f)
	}
}

// bools decodes an array of booleans over dst.
//
//bolt:hotpath
func (d *decoder) bools(dst []bool) ([]bool, error) {
	dst = dst[:0]
	if d.null() {
		return dst, nil
	}
	for {
		more, err := d.elem(len(dst))
		if !more {
			return dst, err
		}
		switch {
		case d.word("true"):
			dst = append(dst, true)
		case d.word("false"), d.null():
			dst = append(dst, false)
		default:
			return dst, errMalformed
		}
	}
}

// text decodes a string value into a string of its own.
//
//bolt:hotpath
func (d *decoder) text() (string, error) {
	if d.null() {
		return "", nil
	}
	b, err := d.str()
	return string(b), err
}

// str decodes a quoted string and returns its bytes: a slice of the line
// when nothing in it needed decoding, of d.scratch otherwise — valid until
// the next call either way.
//
//bolt:hotpath
func (d *decoder) str() ([]byte, error) {
	if !d.eat('"') {
		return nil, errMalformed
	}
	start := d.i
	for d.i < len(d.line) {
		switch c := d.line[d.i]; {
		case c == '"':
			d.i++
			return d.line[start : d.i-1], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return d.strSlow(start)
		case c < ' ':
			return nil, errMalformed
		}
		d.i++
	}
	return nil, errMalformed
}

// strSlow finishes str for a string with an escape or a multi-byte
// character at the cursor; the string's plain start is line[start:d.i].
// A \u escape naming half a surrogate pair decodes to U+FFFD, as in
// encoding/json; raw bytes that are not UTF-8 are an error.
//
//bolt:hotpath
func (d *decoder) strSlow(start int) ([]byte, error) {
	d.scratch = d.scratch[:0]
	d.scratch = append(d.scratch, d.line[start:d.i]...)
	for d.i < len(d.line) {
		c := d.line[d.i]
		switch {
		case c == '"':
			d.i++
			return d.scratch, nil
		case c < ' ':
			return nil, errMalformed
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.line[d.i:])
			if r == utf8.RuneError && size == 1 {
				return nil, errInvalidUTF8
			}
			d.scratch = append(d.scratch, d.line[d.i:d.i+size]...)
			d.i += size
			continue
		case c != '\\':
			d.scratch = append(d.scratch, c)
			d.i++
			continue
		}
		if d.i+1 >= len(d.line) {
			return nil, errMalformed
		}
		esc := d.line[d.i+1]
		d.i += 2
		switch esc {
		case '"', '\\', '/':
			d.scratch = append(d.scratch, esc)
		case 'b':
			d.scratch = append(d.scratch, '\b')
		case 'f':
			d.scratch = append(d.scratch, '\f')
		case 'n':
			d.scratch = append(d.scratch, '\n')
		case 'r':
			d.scratch = append(d.scratch, '\r')
		case 't':
			d.scratch = append(d.scratch, '\t')
		case 'u':
			r, ok := d.hex4()
			if !ok {
				return nil, errMalformed
			}
			if utf16.IsSurrogate(r) {
				// Pair it with a following \uXXXX if that completes it;
				// otherwise this half alone is U+FFFD.
				at := d.i
				r2, ok := rune(0), false
				if d.eat('\\') && d.eat('u') {
					r2, ok = d.hex4()
				}
				if r = utf16.DecodeRune(r, r2); !ok || r == utf8.RuneError {
					d.i, r = at, utf8.RuneError
				}
			}
			d.scratch = utf8.AppendRune(d.scratch, r)
		default:
			return nil, errMalformed
		}
	}
	return nil, errMalformed
}

// hex4 consumes the four hex digits of a \u escape.
//
//bolt:hotpath
func (d *decoder) hex4() (rune, bool) {
	if d.i+4 > len(d.line) {
		return 0, false
	}
	var r rune
	for _, c := range d.line[d.i : d.i+4] {
		if c-'0' <= 9 {
			c -= '0'
		} else if c = (c | 0x20) - 'a' + 10; c < 10 || c > 15 {
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	d.i += 4
	return r, true
}
