package main

import (
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
	srv, _, err := newServer(o, nil)
	if err == nil || !strings.Contains(err.Error(), "Retries") {
		t.Fatalf("newServer with -retries -1 = (%v, %v), want an error naming Retries", srv, err)
	}
}

var testClaims = []serve.ClaimInput{
	{ID: "good", Sentence: "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.", Value: "2"},
	{ID: "bad", Sentence: "The highest fatalities between 2000 and 2014 recorded was 999.", Value: "999"},
}

// TestServeDatasetRequiresCacheDir: a -dataset without -cache-dir has no
// store to restore from, so the server refuses to start, before profiling,
// with cedar's error. (That a served run matches the CLI's is a cell of
// TestIdentityMatrix.)
func TestServeDatasetRequiresCacheDir(t *testing.T) {
	fs := flag.NewFlagSet("cedar-serve", flag.ContinueOnError)
	o := defineFlags(fs)
	must(t, fs.Parse([]string{"-dataset", "x"}))
	if _, _, err := newServer(o, nil); err == nil || err.Error() != "-dataset requires -cache-dir (datasets are loaded from the persistent store)" {
		t.Fatalf("newServer with -dataset and no -cache-dir: %v", err)
	}
}

// The server's status surface reflects its flag defaults, and the metrics
// endpoint exposes the resilience counters of the serving middleware stack.
func TestServerStatusAndResilienceMetrics(t *testing.T) {
	csvPath := writeCSVFixture(t)
	o := testOptions(t, csvPath)
	srv, closeSys, err := newServer(o, nil)
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

	var verified serve.VerifyResponse
	postJSON(t, ts.URL+"/v1/verify", serve.VerifyRequest{Claims: testClaims[:1]}, &verified)

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

	serveOnce := func() serve.VerifyResponse {
		t.Helper()
		o := testOptions(t, csvPath)
		o.BatchWait = -1
		o.CacheDir = cacheDir
		srv, closeSys, err := newServer(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		var out serve.VerifyResponse
		postJSON(t, ts.URL+"/v1/verify", serve.VerifyRequest{Claims: testClaims}, &out)
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
		t.Errorf("warm restart cost $%.4f, not below cold $%.4f", warm.Batch.Dollars.Dollars(), cold.Batch.Dollars.Dollars())
	}
	if warm.Batch.Calls >= cold.Batch.Calls {
		t.Errorf("warm restart made %d calls, not below cold %d", warm.Batch.Calls, cold.Batch.Calls)
	}
}
