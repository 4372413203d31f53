package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/fee"
)

// The verify path's wire codec (DESIGN.md §21). Encoding appends exactly the
// bytes json.Encoder writes for the same value — HTML-safe escaping of <, >
// and &, U+2028 and U+2029 escaped, invalid UTF-8 as \ufffd, a fee.Fee as
// its dollars, omitempty honoured, and the trailing newline — without
// reflection. Decoding reads the request shapes and relayed stream events
// straight from their bytes, and declines anything it does not read exactly
// as encoding/json would: a key that is not spelled as the field's tag (case
// variants, escapes, unknown keys), a repeated key, a null, a wrong type, a
// number an int field would not take, a string with invalid UTF-8, a raw
// control character or a surrogate escape, trailing bytes after the body's
// value. A declined input goes to encoding/json, so its answer — value or
// error text — is the one it always was. The other routes (metrics,
// review, datasets, status) keep encoding/json throughout.

// jsonContentType is the Content-Type header value of a JSON answer, shared
// by every response: assigning it saves Header.Set a slice per response.
var jsonContentType = []string{"application/json"}

// wireBufs recycles the byte buffers responses are encoded into.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledBuf is the largest buffer put back in wireBufs or bodyBufs; a
// larger one, from an unusually big body, is left to the collector.
const maxPooledBuf = 64 << 10

// writeWire writes a verify-path response body: enc appends its JSON to the
// buffer it is given.
func writeWire(w http.ResponseWriter, status int, enc func([]byte) []byte) {
	bp := wireBufs.Get().(*[]byte)
	b := enc((*bp)[:0])
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		wireBufs.Put(bp)
	}
}

// --- encoding ---

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json escapes
// it with HTML escaping on (json.Encoder's default).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFee appends a fee as encoding/json writes the float64 f.Dollars()
// (fee.Fee.MarshalJSON): ES6 number formatting, exponent form below 1e-6 and
// from 1e21.
func appendFee(b []byte, f fee.Fee) []byte {
	d := f.Dollars()
	format := byte('f')
	if abs := math.Abs(d); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, d, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

func (c *ClaimResult) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, c.ID)
	b = append(b, `,"correct":`...)
	b = appendBool(b, c.Correct)
	b = append(b, `,"verified":`...)
	b = appendBool(b, c.Verified)
	if c.Method != "" {
		b = appendString(append(b, `,"method":`...), c.Method)
	}
	if c.Query != "" {
		b = appendString(append(b, `,"query":`...), c.Query)
	}
	if c.Attempts != 0 {
		b = strconv.AppendInt(append(b, `,"attempts":`...), int64(c.Attempts), 10)
	}
	if c.Failure != "" {
		b = appendString(append(b, `,"failure":`...), c.Failure)
	}
	return append(b, '}')
}

func appendClaims(b []byte, claims []ClaimResult) []byte {
	if claims == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range claims {
		if i > 0 {
			b = append(b, ',')
		}
		b = claims[i].appendJSON(b)
	}
	return append(b, ']')
}

func (s *BatchStats) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"docs":`...), int64(s.Docs), 10)
	b = strconv.AppendInt(append(b, `,"claims":`...), int64(s.Claims), 10)
	b = appendFee(append(b, `,"dollars":`...), s.Dollars)
	b = strconv.AppendInt(append(b, `,"calls":`...), int64(s.Calls), 10)
	return append(b, '}')
}

// appendJSON appends the response and its trailing newline.
func (r *VerifyResponse) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"doc_id":`...), r.DocID)
	b = appendClaims(append(b, `,"claims":`...), r.Claims)
	b = r.Batch.appendJSON(append(b, `,"batch":`...))
	return append(b, '}', '\n')
}

// appendJSON appends the response and its trailing newline.
func (r *BatchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"documents":`...)
	if r.Documents == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Documents {
			if i > 0 {
				b = append(b, ',')
			}
			d := &r.Documents[i]
			b = appendString(append(b, `{"doc_id":`...), d.DocID)
			b = appendClaims(append(b, `,"claims":`...), d.Claims)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = r.Batch.appendJSON(append(b, `,"batch":`...))
	return append(b, '}', '\n')
}

func (d *ErrorDetail) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"code":`...), d.Code)
	b = appendString(append(b, `,"message":`...), d.Message)
	return append(b, '}')
}

// appendJSON appends the error envelope and its trailing newline.
func (e *ErrorBody) appendJSON(b []byte) []byte {
	b = e.Error.appendJSON(append(b, `{"error":`...))
	return append(b, '}', '\n')
}

func (s *StreamSummary) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"docs":`...), int64(s.Docs), 10)
	b = strconv.AppendInt(append(b, `,"claims":`...), int64(s.Claims), 10)
	b = appendFee(append(b, `,"dollars":`...), s.Dollars)
	b = strconv.AppendInt(append(b, `,"calls":`...), int64(s.Calls), 10)
	b = strconv.AppendInt(append(b, `,"reviewed":`...), int64(s.Reviewed), 10)
	if len(s.Batches) != 0 {
		b = append(b, `,"batches":[`...)
		for i, n := range s.Batches {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, n, 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendJSON appends the event as one NDJSON line, newline included.
func (e *StreamEvent) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"event":`...), e.Event)
	if e.DocID != "" {
		b = appendString(append(b, `,"doc_id":`...), e.DocID)
	}
	b = strconv.AppendInt(append(b, `,"index":`...), int64(e.Index), 10)
	if e.Claim != nil {
		b = e.Claim.appendJSON(append(b, `,"claim":`...))
	}
	if e.ReviewID != "" {
		b = appendString(append(b, `,"review_id":`...), e.ReviewID)
	}
	if e.Error != nil {
		b = e.Error.appendJSON(append(b, `,"error":`...))
	}
	if e.Summary != nil {
		b = e.Summary.appendJSON(append(b, `,"summary":`...))
	}
	return append(b, '}', '\n')
}

// --- decoding ---

// wireReader reads one JSON value of a known shape from data. Every method
// reports false to decline; the caller then hands the input to encoding/json.
// In a value of up to shareLimit bytes, strings without escapes are slices of
// src, one string copy of data made once, so a decoded request costs one
// allocation for all its text. In a larger one each string is its own copy,
// so that a string kept long (a review item's sentence) does not keep a
// large body alive with it.
type wireReader struct {
	data []byte
	src  string // string(data), made on the first string read
	pos  int
}

const shareLimit = 4 << 10

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (r *wireReader) skipSpace() {
	for r.pos < len(r.data) && isSpace(r.data[r.pos]) {
		r.pos++
	}
}

// next skips whitespace and consumes c if it comes next.
func (r *wireReader) next(c byte) bool {
	r.skipSpace()
	if r.pos < len(r.data) && r.data[r.pos] == c {
		r.pos++
		return true
	}
	return false
}

// object reads an object whose keys field reads, each at most once: field
// returns the bit it owns in the seen mask (0: an unknown key) after reading
// the value.
func (r *wireReader) object(field func(key []byte) (bit uint, ok bool)) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	var seen uint
	for {
		key, ok := r.key()
		if !ok || !r.next(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if r.next('}') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
}

// key reads an object key that needs no unescaping, as a slice of data: the
// only keys the codec accepts are the wire types' ASCII tags.
func (r *wireReader) key() ([]byte, bool) {
	if !r.next('"') {
		return nil, false
	}
	start := r.pos
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		if c == '"' {
			r.pos++
			return r.data[start : r.pos-1], true
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return nil, false
		}
		r.pos++
	}
	return nil, false
}

// str reads a JSON string.
func (r *wireReader) str() (string, bool) {
	if !r.next('"') {
		return "", false
	}
	start := r.pos
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		switch {
		case c == '"':
			var s string
			switch {
			case len(r.data) > shareLimit:
				s = string(r.data[start:r.pos])
			case r.src == "":
				r.src = string(r.data)
				fallthrough
			default:
				s = r.src[start:r.pos]
			}
			r.pos++
			return s, true
		case c == '\\':
			return r.escapedStr(start)
		case c < 0x20:
			return "", false
		case c < utf8.RuneSelf:
			r.pos++
		default:
			ch, size := utf8.DecodeRune(r.data[r.pos:])
			if ch == utf8.RuneError && size == 1 {
				return "", false
			}
			r.pos += size
		}
	}
	return "", false
}

// escapedStr finishes a string that has an escape at r.pos, started at start.
func (r *wireReader) escapedStr(start int) (string, bool) {
	var buf [256]byte // most strings unescape on the stack; the result is one copy
	out := append(buf[:0], r.data[start:r.pos]...)
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		switch {
		case c == '"':
			r.pos++
			return string(out), true
		case c == '\\':
			if r.pos+1 >= len(r.data) {
				return "", false
			}
			e := r.data[r.pos+1]
			r.pos += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				if r.pos+4 > len(r.data) {
					return "", false
				}
				v, err := strconv.ParseUint(string(r.data[r.pos:r.pos+4]), 16, 16)
				if err != nil || (v >= 0xD800 && v < 0xE000) {
					return "", false // surrogates: encoding/json pairs or replaces them
				}
				out = utf8.AppendRune(out, rune(v))
				r.pos += 4
			default:
				return "", false
			}
		case c < 0x20:
			return "", false
		case c < utf8.RuneSelf:
			out = append(out, c)
			r.pos++
		default:
			ch, size := utf8.DecodeRune(r.data[r.pos:])
			if ch == utf8.RuneError && size == 1 {
				return "", false
			}
			out = append(out, r.data[r.pos:r.pos+size]...)
			r.pos += size
		}
	}
	return "", false
}

// number reads a JSON number's text, checking its grammar.
func (r *wireReader) number() ([]byte, bool) {
	r.skipSpace()
	start := r.pos
	if r.pos < len(r.data) && r.data[r.pos] == '-' {
		r.pos++
	}
	digits := func() int {
		n := 0
		for r.pos < len(r.data) && '0' <= r.data[r.pos] && r.data[r.pos] <= '9' {
			r.pos++
			n++
		}
		return n
	}
	intStart := r.pos
	n := digits()
	if n == 0 || (n > 1 && r.data[intStart] == '0') {
		return nil, false
	}
	if r.pos < len(r.data) && r.data[r.pos] == '.' {
		r.pos++
		if digits() == 0 {
			return nil, false
		}
	}
	if r.pos < len(r.data) && (r.data[r.pos] == 'e' || r.data[r.pos] == 'E') {
		r.pos++
		if r.pos < len(r.data) && (r.data[r.pos] == '+' || r.data[r.pos] == '-') {
			r.pos++
		}
		if digits() == 0 {
			return nil, false
		}
	}
	return r.data[start:r.pos], true
}

// integer reads a number an int field takes: encoding/json parses it with
// strconv.ParseInt, so a fraction or an exponent is a type error.
func (r *wireReader) integer() (int64, bool) {
	text, ok := r.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(text), 10, 64)
	return v, err == nil
}

func (r *wireReader) intField(dst *int) bool {
	v, ok := r.integer()
	if ok && int64(int(v)) == v {
		*dst = int(v)
		return true
	}
	return false
}

// fee reads a dollar number as fee.Fee.UnmarshalJSON does.
func (r *wireReader) fee(dst *fee.Fee) bool {
	text, ok := r.number()
	if !ok {
		return false
	}
	d, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return false
	}
	*dst = fee.FromDollars(d)
	return true
}

func (r *wireReader) boolean(dst *bool) bool {
	r.skipSpace()
	rest := r.data[r.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*dst, r.pos = true, r.pos+4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*dst, r.pos = false, r.pos+5
	default:
		return false
	}
	return true
}

func (r *wireReader) strField(dst *string) bool {
	s, ok := r.str()
	*dst = s
	return ok
}

// array reads a JSON array, calling elem once per element. An empty array
// still calls nothing, and the caller makes its slice non-nil, as
// encoding/json does.
func (r *wireReader) array(elem func() bool) bool {
	if !r.next('[') {
		return false
	}
	if r.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if r.next(']') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
}

// end reports whether only whitespace is left.
func (r *wireReader) end() bool {
	r.skipSpace()
	return r.pos == len(r.data)
}

func (r *wireReader) claimInput(c *ClaimInput) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "id":
			return 1, r.strField(&c.ID)
		case "sentence":
			return 2, r.strField(&c.Sentence)
		case "value":
			return 4, r.strField(&c.Value)
		case "context":
			return 8, r.strField(&c.Context)
		}
		return 0, true
	})
}

func (r *wireReader) claimInputs(dst *[]ClaimInput) bool {
	out := make([]ClaimInput, 0, 1)
	ok := r.array(func() bool {
		out = append(out, ClaimInput{})
		return r.claimInput(&out[len(out)-1])
	})
	*dst = out
	return ok
}

func (r *wireReader) document(in *DocumentInput) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "doc_id":
			return 1, r.strField(&in.DocID)
		case "claims":
			return 2, r.claimInputs(&in.Claims)
		}
		return 0, true
	})
}

// decodeDocument reads a stream document or, converted, a POST /v1/verify
// body (the two types have the same fields), reporting false to decline it.
func decodeDocument(data []byte, in *DocumentInput) bool {
	r := wireReader{data: data}
	return r.document(in) && r.end()
}

// decodeBatchRequest reads a POST /v1/verify/batch body.
func decodeBatchRequest(data []byte, req *BatchRequest) bool {
	r := wireReader{data: data}
	ok := r.object(func(key []byte) (uint, bool) {
		if string(key) != "documents" {
			return 0, true
		}
		docs := make([]DocumentInput, 0, 1)
		ok := r.array(func() bool {
			docs = append(docs, DocumentInput{})
			return r.document(&docs[len(docs)-1])
		})
		req.Documents = docs
		return 1, ok
	})
	return ok && r.end()
}

// decodeStreamEvent reads one relayed NDJSON event line.
func decodeStreamEvent(line []byte, ev *StreamEvent) bool {
	r := wireReader{data: line}
	ok := r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "event":
			return 1, r.strField(&ev.Event)
		case "doc_id":
			return 2, r.strField(&ev.DocID)
		case "index":
			return 4, r.intField(&ev.Index)
		case "claim":
			ev.Claim = &ClaimResult{}
			return 8, r.claimResult(ev.Claim)
		case "review_id":
			return 16, r.strField(&ev.ReviewID)
		case "error":
			ev.Error = &ErrorDetail{}
			return 32, r.errorDetail(ev.Error)
		case "summary":
			ev.Summary = &StreamSummary{}
			return 64, r.summary(ev.Summary)
		}
		return 0, true
	})
	return ok && r.end()
}

func (r *wireReader) claimResult(c *ClaimResult) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "id":
			return 1, r.strField(&c.ID)
		case "correct":
			return 2, r.boolean(&c.Correct)
		case "verified":
			return 4, r.boolean(&c.Verified)
		case "method":
			return 8, r.strField(&c.Method)
		case "query":
			return 16, r.strField(&c.Query)
		case "attempts":
			return 32, r.intField(&c.Attempts)
		case "failure":
			return 64, r.strField(&c.Failure)
		}
		return 0, true
	})
}

func (r *wireReader) errorDetail(d *ErrorDetail) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "code":
			return 1, r.strField(&d.Code)
		case "message":
			return 2, r.strField(&d.Message)
		}
		return 0, true
	})
}

func (r *wireReader) summary(s *StreamSummary) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "docs":
			return 1, r.intField(&s.Docs)
		case "claims":
			return 2, r.intField(&s.Claims)
		case "dollars":
			return 4, r.fee(&s.Dollars)
		case "calls":
			return 8, r.intField(&s.Calls)
		case "reviewed":
			return 16, r.intField(&s.Reviewed)
		case "batches":
			s.Batches = []int64{}
			return 32, r.array(func() bool {
				v, ok := r.integer()
				s.Batches = append(s.Batches, v)
				return ok
			})
		}
		return 0, true
	})
}

// decodeVerify reads a POST /v1/verify body into req through the codec, or
// through decodeJSON when the codec declines it.
func decodeVerify(body []byte, req *VerifyRequest) error {
	if decodeDocument(body, (*DocumentInput)(req)) {
		return nil
	}
	slow := new(VerifyRequest) // req itself stays off the heap
	err := decodeJSON(body, slow)
	*req = *slow
	return err
}

// decodeBatch reads a POST /v1/verify/batch body into req, as decodeVerify.
func decodeBatch(body []byte, req *BatchRequest) error {
	if decodeBatchRequest(body, req) {
		return nil
	}
	slow := new(BatchRequest)
	err := decodeJSON(body, slow)
	*req = *slow
	return err
}

// decodeJSON strictly decodes a request body into dst with encoding/json:
// unknown fields are errors, and only whitespace may follow the value.
func decodeJSON(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	for _, c := range body[dec.InputOffset():] {
		if !isSpace(c) {
			// The error encoding/json gives a whole body that is more than
			// one value: "invalid character 'x' after top-level value".
			return json.Unmarshal(body, new(json.RawMessage))
		}
	}
	return nil
}
