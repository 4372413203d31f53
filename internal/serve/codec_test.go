package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fee"
)

// encodeJSON is what json.Encoder writes for v: the bytes the codec's
// encoders must reproduce.
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireTexts are strings that exercise every escaping rule: HTML-escaped
// characters, control characters with and without short escapes, quotes and
// backslashes, U+2028 and U+2029, text outside ASCII, invalid UTF-8 (a
// stray continuation byte, a truncated sequence, an encoded surrogate) and
// U+FFFD itself.
var wireTexts = []string{
	"", "plain", "<b>&amp;</b>", "quote \" backslash \\ slash /", "\b\f\n\r\t\x00\x01\x1f\x7f",
	"line\u2028para\u2029end", "é中文😀", "\xff", "ab\xe2\x82", "\xed\xa0\x80", "\ufffd",
	"SELECT \"fatal_accidents_00_14\" FROM \"airlines\" WHERE \"airline\" = 'Aér Lingus & <Co>'",
}

// wireFees cover both float formats encoding/json picks for a dollar amount.
var wireFees = []fee.Fee{0, 1, 9, 10, 999, 1000, 183_000, 865_500, 1e9, 123_456_789_012, -1, -2_500, 1 << 50}

// wireEncoders are the codec's encoders, each with the wire type it
// encodes; encode appends what json.Encoder writes for the value it is
// given a pointer to, trailing newline included.
var wireEncoders = []struct {
	typ    reflect.Type
	encode func(v any) []byte
}{
	{reflect.TypeOf(ClaimResult{}), func(v any) []byte { return append(v.(*ClaimResult).appendJSON(nil), '\n') }},
	{reflect.TypeOf(BatchStats{}), func(v any) []byte { return append(v.(*BatchStats).appendJSON(nil), '\n') }},
	{reflect.TypeOf(VerifyResponse{}), func(v any) []byte { return v.(*VerifyResponse).appendJSON(nil) }},
	{reflect.TypeOf(BatchResponse{}), func(v any) []byte { return v.(*BatchResponse).appendJSON(nil) }},
	{reflect.TypeOf(ErrorDetail{}), func(v any) []byte { return append(v.(*ErrorDetail).appendJSON(nil), '\n') }},
	{reflect.TypeOf(ErrorBody{}), func(v any) []byte { return v.(*ErrorBody).appendJSON(nil) }},
	{reflect.TypeOf(StreamSummary{}), func(v any) []byte { return append(v.(*StreamSummary).appendJSON(nil), '\n') }},
	{reflect.TypeOf(StreamEvent{}), func(v any) []byte { return v.(*StreamEvent).appendJSON(nil) }},
}

// wireInts are the non-zero values an integer field is filled with.
var wireInts = []int64{1, -1, 7, 1000, 1 << 40, math.MaxInt64, math.MinInt64}

var feeType = reflect.TypeOf(fee.Fee(0))

// wireFiller fills a value of a wire type by reflection. Every exported
// field, however deep, is set by its kind — a string from texts, a fee from
// wireFees, an integer from wireInts, a slice to one or two filled
// elements, a pointer to a filled value — or, with probability zero, left
// at its zero value (a slice then also comes out empty but not nil). With
// zero at 0 every field is on the wire, so a field added to a type and not
// to its encoder makes json.Encoder's bytes differ from the codec's; a kind
// it has no rule for fails the test.
type wireFiller struct {
	t     testing.TB
	rng   *rand.Rand
	texts []string // non-empty
	zero  float64
}

func (f *wireFiller) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			if field := v.Field(i); f.rng.Float64() < f.zero {
				field.SetZero()
				if field.Kind() == reflect.Slice && f.rng.Intn(2) == 0 {
					field.Set(reflect.MakeSlice(field.Type(), 0, 0))
				}
			} else {
				f.fill(field)
			}
		}
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Slice:
		n := 1 + f.rng.Intn(2)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.String:
		v.SetString(f.texts[f.rng.Intn(len(f.texts))])
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		if v.Type() == feeType {
			v.SetInt(int64(wireFees[1+f.rng.Intn(len(wireFees)-1)]))
		} else {
			v.SetInt(wireInts[f.rng.Intn(len(wireInts))])
		}
	default:
		f.t.Fatalf("wireFiller has no rule for %s", v.Type())
	}
}

// checkWireEncode fills n values of every wire type at each zero chance and
// holds the codec's encoder of each to json.Encoder's bytes.
func checkWireEncode(t testing.TB, rng *rand.Rand, texts []string, n int) {
	t.Helper()
	for _, zero := range []float64{0, 0.5, 1} {
		f := &wireFiller{t: t, rng: rng, texts: texts, zero: zero}
		for _, enc := range wireEncoders {
			for i := 0; i < n; i++ {
				v := reflect.New(enc.typ)
				f.fill(v.Elem())
				if got, want := enc.encode(v.Interface()), encodeJSON(t, v.Interface()); !bytes.Equal(got, want) {
					t.Fatalf("%s (zero chance %v):\n got %s\nwant %s", enc.typ, zero, got, want)
				}
			}
		}
	}
}

// nonEmpty is texts without the empty string.
func nonEmpty(texts []string) []string {
	var out []string
	for _, s := range texts {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

// TestWireEncodeMatchesEncodingJSON holds every encoder of the codec to
// json.Encoder's bytes over values filled by reflection from the escaping
// texts and the fee formats, with every field set, with none, and mixed.
func TestWireEncodeMatchesEncodingJSON(t *testing.T) {
	checkWireEncode(t, rand.New(rand.NewSource(1)), nonEmpty(wireTexts), 200)
	for _, f := range wireFees {
		for _, g := range []fee.Fee{f, -f, f * 1000, f * 1_000_000} {
			stats := BatchStats{Dollars: g}
			if got, want := append(stats.appendJSON(nil), '\n'), encodeJSON(t, stats); !bytes.Equal(got, want) {
				t.Errorf("fee %d:\n got %s\nwant %s", g, got, want)
			}
		}
	}
}

// TestWireFillerSetsEveryField: with no zero chance, every exported field of
// every wire type, however deep, comes out non-zero, so the encoder test
// above sees each on the wire.
func TestWireFillerSetsEveryField(t *testing.T) {
	f := &wireFiller{t: t, rng: rand.New(rand.NewSource(2)), texts: nonEmpty(wireTexts)}
	var check func(path string, v reflect.Value)
	check = func(path string, v reflect.Value) {
		if v.IsZero() {
			t.Errorf("%s is zero", path)
			return
		}
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					check(path+"."+v.Type().Field(i).Name, v.Field(i))
				}
			}
		case reflect.Pointer:
			check(path, v.Elem())
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				check(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		}
	}
	for _, enc := range wireEncoders {
		v := reflect.New(enc.typ).Elem()
		f.fill(v)
		check(enc.typ.Name(), v)
	}
}

// wireSeeds are request bodies and event lines for the decoder: accepted
// shapes, and every kind of input the codec must decline.
var wireSeeds = []string{
	`{"doc_id":"d","claims":[{"id":"c1","sentence":"The value is 1.","value":"1","context":"ctx"}]}`,
	`{"claims":[{"sentence":"s","value":"v"}]}`, `{}`, `{"claims":[]}`, ` {"doc_id" : "d" , "claims" : [ ] } `,
	`{"doc_id":"\u003c\u0026\u003e \u2028 \ud83d\ude00 \ud800 \udc00x \/ \b\f\n\r\t \u0000"}`,
	`{"doc_id":"é中文","claims":[{"sentence":"` + "\xff" + `","value":"v"}]}`,
	"{\"doc_id\":\"raw\ttab\"}", "{\"doc_id\":\"raw\u2028\"}",
	`{"doc_id":null}`, `{"claims":null}`, `{"claims":[null]}`, `{"claims":[{"id":null}]}`, `null`,
	`{"Doc_ID":"d"}`, `{"DOC_ID":"d"}`, `{"doc\u005fid":"d"}`, `{"claimz":[]}`, `{"doc_id":"a","doc_id":"b"}`,
	`{"claims":[{"id":"a","id":"b"}]}`, `{"doc_id":7}`, `{"claims":{}}`, `{"claims":[1]}`,
	`{"doc_id":"d"} x`, `{"doc_id":"d"}{"doc_id":"e"}`, `{"doc_id":"d"`, `{"doc_id":"d",}`, `[]`, ``, ` `,
	`{"documents":[{"doc_id":"a","claims":[{"sentence":"s","value":"v"}]},{"doc_id":"b"}]}`,
	`{"documents":[]}`, `{"documents":null}`, `{"documents":[{"Claims":[]}]}`,
	`{"event":"verdict","doc_id":"d","index":0,"claim":{"id":"c","correct":true,"verified":false,"method":"m","query":"SELECT \"a\"","attempts":2,"failure":"f"},"review_id":"r"}`,
	`{"event":"error","index":3,"error":{"code":"bad_request","message":"m"}}`,
	`{"event":"summary","index":2,"summary":{"docs":2,"claims":2,"dollars":0.000484,"calls":3,"reviewed":1,"batches":[7,8]}}`,
	`{"event":"summary","summary":{"dollars":1e-9,"batches":[]}}`, `{"event":"summary","summary":{"dollars":1E400}}`,
	`{"event":"summary","summary":{"dollars":-0}}`, `{"event":"summary","summary":{"dollars":"0.1"}}`,
	`{"index":1.0}`, `{"index":1e2}`, `{"index":-0}`, `{"index":01}`, `{"index":9223372036854775808}`,
	`{"index":-9223372036854775808}`, `{"claim":null}`, `{"claim":{"correct":tru}}`, `{"claim":{"correct":"true"}}`,
	`{"event":"verdict","extra":1}`, `{"Event":"verdict"}`, `{"summary":{"batches":[1,2.5]}}`,
	// encoding/json decodes a repeated object key into the value the first
	// one made, merging the two; the codec declines.
	`{"claim":{"id":"x"},"claim":{"method":"m"}}`, `{"summary":{"docs":1},"summary":{"calls":2}}`,
	// Past shareLimit every string is its own copy.
	`{"doc_id":"big","claims":[{"id":"c\n1","sentence":"` + strings.Repeat("long ", 1000) + `","value":"long"}]}`,
}

func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	for _, s := range wireSeeds[:8] {
		f.Add([]byte(s + "\n" + s + "\r\n\t" + s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireDecode(t, data)
		checkStreamRead(t, data)
		// The input also seeds the encoders' values and is one of their texts.
		texts := nonEmpty(append([]string{string(data)}, wireTexts...))
		seed := int64(len(data))
		for _, c := range data {
			seed = seed*31 + int64(c)
		}
		checkWireEncode(t, rand.New(rand.NewSource(seed)), texts, 2)
	})
}

// TestWireCodecSeeds runs the fuzz target's checks on its seeds under plain
// go test, with every seed also read as a stream of itself three times.
func TestWireCodecSeeds(t *testing.T) {
	for _, s := range wireSeeds {
		checkWireDecode(t, []byte(s))
		checkStreamRead(t, []byte(s))
		checkStreamRead(t, []byte(s+"\n"+s+" "+s))
	}
}

// TestWireCodecAccepts: the differential above passes for a codec that
// declines everything, so the shapes clients and replicas send must be read
// by the codec itself, and a stream of them by rawTap.nextObject.
func TestWireCodecAccepts(t *testing.T) {
	for _, body := range []string{wireSeeds[0], wireSeeds[1], wireSeeds[2], wireSeeds[3], wireSeeds[4], wireSeeds[len(wireSeeds)-1],
		`{"doc_id":"\u003c\u0026\u003e \u2028 \/ \b\f\n\r\t \u0000 é"}`} {
		var in DocumentInput
		if !decodeDocument([]byte(body), &in) {
			t.Errorf("codec declined %q", body)
		}
	}
	const batch = `{"documents":[{"doc_id":"a","claims":[{"sentence":"s","value":"v"}]},{"doc_id":"b"}]}`
	var br BatchRequest
	if !decodeBatchRequest([]byte(batch), &br) || len(br.Documents) != 2 {
		t.Errorf("codec declined %q", batch)
	}
	for _, line := range []string{
		relayedVerdict,
		`{"event":"error","index":3,"error":{"code":"bad_request","message":"m"}}`,
		`{"event":"summary","index":2,"summary":{"docs":2,"claims":2,"dollars":0.000484,"calls":3,"reviewed":1,"batches":[7,8]}}`,
	} {
		var ev StreamEvent
		if !decodeStreamEvent([]byte(line), &ev) {
			t.Errorf("codec declined %q", line)
		}
	}
	// Read a byte at a time, so an escape's backslash ends a read.
	quoted := `{"doc_id":"a\"}\\{[\"","claims":[{"sentence":"} ] \\\"","value":"\\"}]}`
	objects := []string{wireSeeds[0], strings.TrimSpace(wireSeeds[4]), quoted, wireSeeds[0]}
	tap := &rawTap{r: &chunkReader{data: []byte(" " + objects[0] + "\r\n" + wireSeeds[4] + quoted + objects[3] + "\n"), n: 1}}
	for i, want := range objects {
		raw, err := tap.nextObject()
		if err != nil || string(raw) != want {
			t.Fatalf("object %d: %q, %v; want %q", i, raw, err, want)
		}
		var in DocumentInput
		if !decodeDocument(raw, &in) {
			t.Errorf("codec declined %q", raw)
		}
		tap.consume(len(raw))
	}
	if _, err := tap.nextObject(); err != io.EOF {
		t.Errorf("after the last object: %v, want io.EOF", err)
	}
}

// checkWireDecode holds each decoder of the codec to encoding/json on data: a
// decode the codec accepts must be one encoding/json accepts with an equal
// result, and whatever encoding/json decodes must re-encode through the
// codec to json.Encoder's bytes.
func checkWireDecode(t *testing.T, data []byte) {
	t.Helper()
	var vr, refVR VerifyRequest
	refErr := decodeJSON(data, &refVR)
	if decodeDocument(data, (*DocumentInput)(&vr)) && (refErr != nil || !reflect.DeepEqual(vr, refVR)) {
		t.Fatalf("VerifyRequest %q: codec %+v, encoding/json %+v, %v", data, vr, refVR, refErr)
	}
	if err := decodeVerify(data, &vr); fmt.Sprint(err) != fmt.Sprint(refErr) || (err == nil && !reflect.DeepEqual(vr, refVR)) {
		t.Fatalf("decodeVerify %q: %+v, %v; encoding/json %+v, %v", data, vr, err, refVR, refErr)
	}
	if refErr == nil {
		resp := VerifyResponse{DocID: refVR.DocID, Batch: BatchStats{Docs: len(data), Dollars: fee.Fee(len(data) * 977)}}
		for i, c := range refVR.Claims {
			resp.Claims = append(resp.Claims, ClaimResult{ID: c.ID, Method: c.Sentence, Query: c.Value, Failure: c.Context, Attempts: i, Verified: i%2 == 0})
		}
		if got, want := resp.appendJSON(nil), encodeJSON(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("VerifyResponse from %q:\n got %s\nwant %s", data, got, want)
		}
	}

	var in, refIn DocumentInput
	refErr = decodeJSON(data, &refIn)
	if decodeDocument(data, &in) && (refErr != nil || !reflect.DeepEqual(in, refIn)) {
		t.Fatalf("DocumentInput %q: codec %+v, encoding/json %+v, %v", data, in, refIn, refErr)
	}

	var br, refBR BatchRequest
	refErr = decodeJSON(data, &refBR)
	if decodeBatchRequest(data, &br) && (refErr != nil || !reflect.DeepEqual(br, refBR)) {
		t.Fatalf("BatchRequest %q: codec %+v, encoding/json %+v, %v", data, br, refBR, refErr)
	}
	if err := decodeBatch(data, &br); fmt.Sprint(err) != fmt.Sprint(refErr) || (err == nil && !reflect.DeepEqual(br, refBR)) {
		t.Fatalf("decodeBatch %q: %+v, %v; encoding/json %+v, %v", data, br, err, refBR, refErr)
	}

	var ev, refEv StreamEvent
	refErr = json.Unmarshal(data, &refEv)
	if decodeStreamEvent(data, &ev) && (refErr != nil || !reflect.DeepEqual(ev, refEv)) {
		t.Fatalf("StreamEvent %q: codec %+v, encoding/json %+v, %v", data, ev, refEv, refErr)
	}
	if refErr == nil {
		if got, want := refEv.appendJSON(nil), encodeJSON(t, refEv); !bytes.Equal(got, want) {
			t.Fatalf("StreamEvent from %q:\n got %s\nwant %s", data, got, want)
		}
	}
}

// streamDoc is one document readStream handed on, or its terminal error.
type streamRead struct {
	index int
	in    DocumentInput
	raw   string
	err   *ErrorDetail
}

// referenceReadStream is readStream as it was before the codec: a
// json.Decoder over the whole body.
func referenceReadStream(data []byte) []streamRead {
	var out []streamRead
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	prev := int64(0)
	for index := 0; ; index++ {
		var in DocumentInput
		if err := dec.Decode(&in); err != nil {
			if err != io.EOF {
				out = append(out, streamRead{err: &ErrorDetail{Code: CodeBadRequest,
					Message: fmt.Sprintf("decoding stream document %d: %v", index, err)}})
			}
			return out
		}
		raw := bytes.TrimLeft(data[prev:dec.InputOffset()], " \t\r\n")
		prev = dec.InputOffset()
		out = append(out, streamRead{index: index, in: in, raw: string(raw)})
	}
}

// chunkReader hands a body on n bytes per read, so documents, escapes and
// whitespace straddle the reads.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	k := min(c.n, len(p), len(c.data))
	copy(p, c.data[:k])
	c.data = c.data[k:]
	return k, nil
}

// checkStreamRead holds readStream — the codec while it accepts documents,
// a json.Decoder from the first it declines — to the decoder alone, reading
// the body in chunks of a few bytes.
func checkStreamRead(t *testing.T, data []byte) {
	t.Helper()
	want := referenceReadStream(data)
	for _, chunk := range []int{1, 7, 4096} {
		r := httptest.NewRequest("POST", "/v1/verify/stream", &chunkReader{data: data, n: chunk})
		readerErr := make(chan ErrorDetail, 1)
		var got []streamRead
		readStream(newServeMetrics(), r, readerErr, nil, func(index int, in DocumentInput, raw []byte) bool {
			got = append(got, streamRead{index: index, in: in, raw: string(raw)})
			return true
		})
		select {
		case ed := <-readerErr:
			got = append(got, streamRead{err: &ed})
		default:
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %q in chunks of %d:\n got %+v\nwant %+v", data, chunk, got, want)
		}
	}
}

// TestTrailingDataRejected: a verify body is one JSON value. Bytes after it
// other than whitespace used to be ignored — a second document posted to
// POST /v1/verify went unverified behind a 200 — and are now a 400 on both
// tiers, whether the codec or encoding/json reads the value.
func TestTrailingDataRejected(t *testing.T) {
	_, replica := newTestServer(t, Config{Backend: tagBackend("replica"), BatchWait: -1})
	tier := newFakeTier(t, CoordinatorConfig{}, answer(200, `{}`))
	doc := streamDocLine("trail", "1")
	for _, tc := range []struct{ path, body string }{
		{"/v1/verify", doc + " garbage"},
		{"/v1/verify", doc + doc},
		{"/v1/verify", doc + "\n" + doc},
		{"/v1/verify", `{"Doc_ID":"trail","claims":[]} {}`}, // declined by the codec
		{"/v1/verify/batch", `{"documents":[` + doc + `]}]`},
	} {
		for _, base := range []string{replica.URL, tier.ts.URL} {
			resp := postBody(t, base+tc.path, strings.NewReader(tc.body))
			if resp.StatusCode != 400 {
				t.Errorf("%s %s %q: status %d, want 400", base, tc.path, tc.body, resp.StatusCode)
			}
			if code := errorCode(t, resp); code != CodeBadRequest {
				t.Errorf("%s %s %q: code %q, want %q", base, tc.path, tc.body, code, CodeBadRequest)
			}
		}
	}
	// Whitespace after the value is not data.
	resp := postBody(t, replica.URL+"/v1/verify", strings.NewReader(doc+" \r\n\t\n"))
	if resp.StatusCode != 200 {
		t.Errorf("trailing whitespace: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}
