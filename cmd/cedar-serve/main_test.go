package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/cedar"
	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/serve"
)

func writeCSVFixture(t *testing.T) string {
	t.Helper()
	csvPath := filepath.Join(t.TempDir(), "airlines.csv")
	if err := os.WriteFile(csvPath, []byte(
		"airline,incidents_85_99,fatal_accidents_00_14,fatalities_00_14\n"+
			"Aer Lingus,2,0,0\n"+
			"Aeroflot,76,1,88\n"+
			"Malaysia Airlines,3,2,537\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return csvPath
}

// testOptions parses an empty command line so every option carries its real
// flag default, then points the server at the fixture database.
func testOptions(t *testing.T, csvPath string) *serveOptions {
	t.Helper()
	fs := flag.NewFlagSet("cedar-serve", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	o.CSVPaths = []string{csvPath}
	return o
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// TestNegativeRetriesRejected: -retries -1 under the default -timeout used
// to build a retrier with no attempt budget, which retries twice by default.
// The server must refuse to start instead, naming the knob.
func TestNegativeRetriesRejected(t *testing.T) {
	fs := flag.NewFlagSet("cedar-serve", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse([]string{"-csv", writeCSVFixture(t), "-retries", "-1"}); err != nil {
		t.Fatal(err)
	}
	srv, _, err := newServer(o)
	if err == nil || !strings.Contains(err.Error(), "Retries") {
		t.Fatalf("newServer with -retries -1 = (%v, %v), want an error naming Retries", srv, err)
	}
}

var testClaims = []serve.ClaimInput{
	{ID: "good", Sentence: "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.", Value: "2"},
	{ID: "bad", Sentence: "The highest fatalities between 2000 and 2014 recorded was 999.", Value: "999"},
}

// TestServedMatchesDirectRun is the CLI/HTTP bit-identity contract: the same
// seed, database, and claims produce identical verdicts and identical
// ledger totals whether they arrive over HTTP or through the library entry
// point the cedar CLI uses.
func TestServedMatchesDirectRun(t *testing.T) {
	csvPath := writeCSVFixture(t)
	o := testOptions(t, csvPath)
	o.BatchWait = -1 // every request rides alone, like a CLI run

	srv, closeSys, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSys()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, err := json.Marshal(serve.VerifyRequest{Claims: testClaims})
	if err != nil {
		t.Fatal(err)
	}
	post := func() serve.VerifyResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var out serve.VerifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	served := post()
	// Serving is stateless across batches: a repeat of the same request
	// reproduces itself exactly (the ledger and tracer reset per run).
	if again := post(); !reflect.DeepEqual(served, again) {
		t.Errorf("served response not reproducible:\nfirst  %+v\nsecond %+v", served, again)
	}

	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The reference run: same database, same resilience options, same
	// profiling corpus, through the entry point cmd/cedar uses.
	db, dbName, err := cliutil.LoadDatabase(o.CSVPaths, o.TableName)
	if err != nil {
		t.Fatal(err)
	}
	sr := exp.ServingResilience()
	sys, err := cedar.New(cedar.Options{
		Seed:           o.Seed,
		AccuracyTarget: o.Target,
		Workers:        o.Workers,
		Retries:        sr.Retries,
		Timeout:        sr.Timeout,
		HedgeAfter:     sr.HedgeAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	profDocs, err := cedar.Benchmark(cedar.BenchAggChecker, o.Seed+100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ProfileOn(profDocs[:6]); err != nil {
		t.Fatal(err)
	}
	var claims []*cedar.Claim
	for _, in := range testClaims {
		c, err := cedar.NewClaim(in.ID, in.Sentence, in.Value, in.Context)
		if err != nil {
			t.Fatal(err)
		}
		claims = append(claims, c)
	}
	rep, err := sys.VerifyClaims(dbName, db, claims)
	if err != nil {
		t.Fatal(err)
	}

	if served.DocID != dbName {
		t.Errorf("served doc_id = %q, want the CLI's %q", served.DocID, dbName)
	}
	if len(served.Claims) != len(claims) {
		t.Fatalf("served %d claims, want %d", len(served.Claims), len(claims))
	}
	for i, c := range claims {
		got := served.Claims[i]
		want := serve.ClaimResult{
			ID:       c.ID,
			Correct:  c.Result.Correct,
			Verified: c.Result.Verified,
			Method:   c.Result.Method,
			Query:    c.Result.Query,
			Attempts: c.Result.Attempts,
			Failure:  c.Result.Failure,
		}
		if got != want {
			t.Errorf("claim %s served %+v, direct run %+v", c.ID, got, want)
		}
	}
	if served.Batch.Claims != rep.Claims || served.Batch.Dollars != rep.Dollars || served.Batch.Calls != rep.Calls {
		t.Errorf("served batch totals %+v, direct run claims=%d dollars=%v calls=%d",
			served.Batch, rep.Claims, rep.Dollars, rep.Calls)
	}
}

// The server's status surface reflects its flag defaults, and the metrics
// endpoint exposes the resilience counters of the serving middleware stack.
func TestServerStatusAndResilienceMetrics(t *testing.T) {
	csvPath := writeCSVFixture(t)
	o := testOptions(t, csvPath)
	srv, closeSys, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSys()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	body, err := json.Marshal(serve.VerifyRequest{Claims: testClaims[:1]})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify status = %d, want 200", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.StatusResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.State != "serving" || st.MaxBatch != o.MaxBatch || st.QueueCap != o.QueueDepth || st.Schedule == "" {
		t.Errorf("status = %+v", st)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met serve.MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if met.Resilience == nil || met.Resilience.Attempts == 0 {
		t.Errorf("resilience counters missing or empty: %+v", met.Resilience)
	}
	if len(met.Methods) == 0 {
		t.Error("per-method rollups missing: the server's tracer is not feeding /v1/metrics")
	}
	if met.Verify.Claims != 1 {
		t.Errorf("verify claims = %d, want 1", met.Verify.Claims)
	}
}

// TestServeWarmRestart pins the -cache-dir restart contract: a server rebuilt
// over the same cache directory answers the same request with identical
// verdicts at strictly lower cost — persisted temperature-0 completions are
// served from disk instead of re-billed. Verdict-level identity is the
// contract here: the serving stack retries and hedges by default, and a cold
// retry-then-success persists its completion under a retry-agnostic key, so
// the warm run legitimately skips the cold run's fault/retry attempts
// (DESIGN.md §11).
func TestServeWarmRestart(t *testing.T) {
	csvPath := writeCSVFixture(t)
	cacheDir := t.TempDir()

	post := func(ts *httptest.Server) serve.VerifyResponse {
		t.Helper()
		body, err := json.Marshal(serve.VerifyRequest{Claims: testClaims})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var out serve.VerifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	serveOnce := func() serve.VerifyResponse {
		t.Helper()
		o := testOptions(t, csvPath)
		o.BatchWait = -1
		o.CacheDir = cacheDir
		srv, closeSys, err := newServer(o)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		out := post(ts)
		ts.Close()
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if err := closeSys(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	cold := serveOnce() // process 1: pays, persists
	warm := serveOnce() // process 2: fresh System, same directory

	if !reflect.DeepEqual(cold.Claims, warm.Claims) {
		t.Errorf("verdicts changed across restart:\n cold %+v\n warm %+v", cold.Claims, warm.Claims)
	}
	if warm.Batch.Dollars >= cold.Batch.Dollars {
		t.Errorf("warm restart cost $%.4f, not below cold $%.4f", warm.Batch.Dollars, cold.Batch.Dollars)
	}
	if warm.Batch.Calls >= cold.Batch.Calls {
		t.Errorf("warm restart made %d calls, not below cold %d", warm.Batch.Calls, cold.Batch.Calls)
	}
}
