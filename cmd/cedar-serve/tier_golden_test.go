package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/tier.golden and testdata/identity_cells.txt from this build")

// tierGoldenPath holds the exact response bodies of the serving tier.
var tierGoldenPath = filepath.Join("testdata", "tier.golden")

// tierCase is one request of the tier golden, sent alike to the coordinator
// and to a standalone replica. Every case uses document IDs of its own, so no
// review item is shared between cases whichever replica the ring picks.
type tierCase struct {
	name, method, path, body string
}

// Claims whose IDs and text carry what a JSON encoder must escape: <, > and
// & (HTML-escaped), U+2028 and U+2029, quotes, a backslash, a control
// character, and text outside ASCII. The entity text reaches the SQL the
// verdict reports.
const escapeClaims = `[` +
	`{"id":"a<b>&c d ","sentence":"Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.","value":"2","context":"Ünïcödé & <context> \"quoted\" \\ tab\t中文"},` +
	`{"id":"é中\u0001","sentence":"Aér Lingus & <Co> recorded 0 fatal accidents between 2000 and 2014.","value":"0"},` +
	`{"id":"\ud83d\ude00 \ud800 \u00e9 \/ ` + "\xff\xfe" + `","sentence":"Aeroflot logged 76 incidents between 1985 and 1999.","value":"76"}` +
	`]`

func tierCases() []tierCase {
	good := `{"id":"good","sentence":"Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.","value":"2"}`
	bad := `{"id":"bad","sentence":"The highest fatalities between 2000 and 2014 recorded was 999.","value":"999"}`
	agg := `{"id":"agg","sentence":"Aeroflot logged 76 incidents between 1985 and 1999.","value":"76"}`
	mixed := `{"id":"mixed","sentence":"Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014, and France recorded 370 wine servings.","value":"2"}`
	doc := func(id string, claims ...string) string {
		return `{"doc_id":"` + id + `","claims":[` + strings.Join(claims, ",") + `]}`
	}
	return []tierCase{
		{"unary", "POST", "/v1/verify", doc("g-unary", good, bad, agg)},
		{"unary defaults", "POST", "/v1/verify", `{"claims":[{"sentence":"Aeroflot logged 76 incidents between 1985 and 1999.","value":"76"}]}`},
		{"unary escapes", "POST", "/v1/verify", `{"doc_id":"g-esc<&> é","claims":` + escapeClaims + `}`},
		{"unary nulls", "POST", "/v1/verify", `{"doc_id":null,"claims":[{"id":null,"sentence":"Aeroflot logged 76 incidents between 1985 and 1999.","value":"76","context":null}]}`},
		{"unary duplicate keys", "POST", "/v1/verify", `{"doc_id":"g-dup-first","claims":[` + bad + `],"doc_id":"g-dup","claims":[` + good + `]}`},
		{"unary whitespace", "POST", "/v1/verify", " \t\r\n{ \"doc_id\" : \"g-ws\" ,\n \"claims\" : [ " + good + " ] }\n\n"},
		{"batch", "POST", "/v1/verify/batch", `{"documents":[` + doc("g-batch-1", good, bad) + `,` + doc("g-batch-2", agg) + `]}`},
		{"batch escapes", "POST", "/v1/verify/batch", `{"documents":[{"doc_id":"g-batch-esc","claims":` + escapeClaims + `}]}`},
		{"stream", "POST", "/v1/verify/stream", doc("g-stream-1", good, bad) + "\n" + doc("g-stream-2", agg) + "\n" + doc("g-stream-3", good) + "\n"},
		{"stream unseparated", "POST", "/v1/verify/stream", doc("g-stream-u1", good) + doc("g-stream-u2", agg)},
		{"stream crlf", "POST", "/v1/verify/stream", "\r\n" + doc("g-stream-c1", agg) + "\r\n\r\n\t " + doc("g-stream-c2", good) + "\r\n"},
		{"stream escapes", "POST", "/v1/verify/stream", `{"doc_id":"g-stream-esc","claims":` + escapeClaims + "}\n"},
		{"stream bad document mid-way", "POST", "/v1/verify/stream", doc("g-stream-b1", good) + "\n" + `{"doc_id":"g-stream-b2","claims":[]}` + "\n" + doc("g-stream-b3", agg) + "\n"},
		{"stream bad json mid-way", "POST", "/v1/verify/stream", doc("g-stream-j1", good) + "\n" + `{"doc_id":5}` + "\n" + doc("g-stream-j3", agg) + "\n"},
		{"stream unknown field", "POST", "/v1/verify/stream", doc("g-stream-k1", agg) + "\n" + `{"doc_id":"g-stream-k2","claimz":[]}` + "\n"},
		{"stream truncated", "POST", "/v1/verify/stream", doc("g-stream-t1", agg) + "\n" + `{"doc_id":"g-stream-t2","claims":[`},
		{"routed", "POST", "/v1/verify", doc("g-routed", mixed, agg)},
		{"routed batch", "POST", "/v1/verify/batch", `{"documents":[` + doc("g-routed-b1", mixed) + `,` + doc("g-routed-b2", good) + `]}`},
		{"400 malformed", "POST", "/v1/verify", `{"claims":[`},
		{"400 unknown field", "POST", "/v1/verify", `{"claimz":[]}`},
		{"400 case-variant field", "POST", "/v1/verify", `{"Claims":[]}`},
		{"400 wrong type", "POST", "/v1/verify", `{"doc_id":7,"claims":[]}`},
		{"400 no claims", "POST", "/v1/verify", `{"doc_id":"g-empty","claims":[]}`},
		{"400 null body", "POST", "/v1/verify", `null`},
		{"400 bad claim", "POST", "/v1/verify", `{"doc_id":"g-badclaim","claims":[{"sentence":"No value here.","value":"42"}]}`},
		{"400 trailing data", "POST", "/v1/verify", doc("g-trail", agg) + " garbage"},
		{"400 two documents", "POST", "/v1/verify", doc("g-two-a", agg) + doc("g-two-b", good)},
		{"400 batch trailing data", "POST", "/v1/verify/batch", `{"documents":[` + doc("g-trail-b", agg) + `]}` + "\n{}\n"},
		{"400 batch without documents", "POST", "/v1/verify/batch", `{"documents":[]}`},
		{"413 declared", "POST", "/v1/verify", `{"claims":[{"sentence":"The answer is 42.` + strings.Repeat(" ", 8<<20) + `","value":"42"}]}`},
		{"413 stream declared", "POST", "/v1/verify/stream", `{"claims":[{"sentence":"The answer is 42.` + strings.Repeat(" ", 8<<20) + `","value":"42"}]}` + "\n"},
		{"404 route", "GET", "/v1/nope", ""},
		{"404 review item", "POST", "/v1/review/no-such-item", `{"resolution":"confirmed"}`},
	}
}

// TestTierGolden pins the exact bytes the serving tier answers — status,
// content type and body — for unary, batch, stream and routed requests and
// for the error answers, on a coordinator over two replicas and on a
// standalone replica. Replicas run one document per micro-batch, so every
// fee total is the same at every run. `go test -run TierGolden -update`
// rewrites the golden; only a change to what the tier answers may do so.
func TestTierGolden(t *testing.T) {
	got := tierTranscript(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(tierGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tierGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tierGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotSec, wantSec := transcriptSections(got), transcriptSections(want)
	for i := 0; i < max(len(gotSec), len(wantSec)); i++ {
		var g, w string
		if i < len(gotSec) {
			g = gotSec[i]
		}
		if i < len(wantSec) {
			w = wantSec[i]
		}
		if g != w {
			t.Errorf("section %d differs:\n got %q\nwant %q", i, g, w)
		}
	}
}

// tierTranscript boots a route-enabled tier (airlines and drinks on every
// replica), sends every case to the coordinator and then to a standalone
// replica, and renders the answers as one transcript.
func tierTranscript(t *testing.T) []byte {
	t.Helper()
	drinks := writeDrinksFixture(t)
	tune := func(o *serveOptions) {
		routedTune(drinks)(o)
		o.MaxBatch = 1
	}
	airlines := writeCSVFixture(t)
	tier := bootShardTier(t, airlines, 2, tune)
	o := testOptions(t, airlines)
	o.BatchWait = -1
	tune(o)
	srv, closeSys, err := newServer(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv)
	t.Cleanup(func() {
		replica.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = closeSys()
	})

	var out bytes.Buffer
	client := &http.Client{Timeout: 60 * time.Second}
	for _, target := range []struct{ name, url string }{{"coordinator", tier.coordTS.URL}, {"replica", replica.URL}} {
		for _, tc := range tierCases() {
			status, ctype, body := tierDo(t, client, tc.method, target.url+tc.path, tc.body)
			fmt.Fprintf(&out, "=== %s %s: %s %s -> %d %s, %d bytes\n", target.name, tc.name, tc.method, tc.path, status, ctype, len(body))
			out.Write(body)
			out.WriteString("\n")
		}
	}
	return out.Bytes()
}

func tierDo(t *testing.T, client *http.Client, method, url, body string) (int, string, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading answer: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b
}

// transcriptSections splits a transcript at its "=== " headers.
func transcriptSections(b []byte) []string {
	var out []string
	for _, s := range strings.SplitAfter(string(b), "\n=== ") {
		out = append(out, s)
	}
	return out
}
