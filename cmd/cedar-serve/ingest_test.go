package main

import (
	"bytes"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/cedar"
	"repro/internal/ingest"
	"repro/internal/serve"
)

const salesFixtureCSV = `region,product,units,revenue
north,widget,12,1034.50
south,gadget,7,812.25
east,widget,31,2200.00
west,sprocket,5,150.00
north,gadget,19,1500.75
`

// postDataset ingests the sales fixture through base's POST /v1/datasets
// (raw body + query parameters) and returns the response.
func postDataset(t *testing.T, base string) serve.DatasetResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/datasets?name=sales&seed=1", "text/csv",
		strings.NewReader(salesFixtureCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/datasets = %d: %s", resp.StatusCode, body)
	}
	var out serve.DatasetResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// verifyClaims posts one verification request and returns the claim results.
func verifyClaims(t *testing.T, base, docID string, claims []serve.ClaimInput) []serve.ClaimResult {
	t.Helper()
	body, err := json.Marshal(serve.VerifyRequest{DocID: docID, Claims: claims})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/verify = %d: %s", resp.StatusCode, raw)
	}
	var out serve.VerifyResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out.Claims
}

// getJSONStatus fetches one URL, returning the status code and body.
func getJSONStatus(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestIngestedDatasetServingIdentity is the ingest acceptance gate: a
// dataset onboarded over HTTP yields bit-identical verdicts on a direct
// library run, a single served replica, and a 4-shard coordinator tier —
// and the coordinator's fan-out leaves every replica holding the same
// catalog (same fingerprint), which is what keeps ring routing
// verdict-deterministic.
func TestIngestedDatasetServingIdentity(t *testing.T) {
	csvPath := writeCSVFixture(t)
	const docID = "sales-doc"
	o := testOptions(t, csvPath)
	o.BatchWait = -1

	// Reference: the System cedar-serve stands up from the same flags, with
	// the dataset ingested in process. Claim generation is deterministic, so
	// the HTTP-ingested replicas will accept exactly these surface claims.
	sys, err := o.Open(nil, ingest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ds, err := sys.Datasets.IngestFrom(strings.NewReader(salesFixtureCSV), ingest.Options{Table: "sales"})
	if err != nil {
		t.Fatal(err)
	}
	var claims []serve.ClaimInput
	for _, c := range ds.Surface.Claims {
		claims = append(claims, serve.ClaimInput{ID: c.ID, Sentence: c.Sentence, Value: c.Value, Context: c.Context})
	}
	if len(claims) < 8 {
		t.Fatalf("surface generated only %d claims", len(claims))
	}
	var direct []*cedar.Claim
	for _, in := range claims {
		c, err := cedar.NewClaim(in.ID, in.Sentence, in.Value, in.Context)
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, c)
	}
	if _, err := sys.VerifyClaims(docID, sys.DB, direct); err != nil {
		t.Fatal(err)
	}
	want := make([]serve.ClaimResult, 0, len(direct))
	for _, c := range direct {
		want = append(want, serve.ClaimResult{
			ID: c.ID, Correct: c.Result.Correct, Verified: c.Result.Verified,
			Method: c.Result.Method, Query: c.Result.Query,
			Attempts: c.Result.Attempts, Failure: c.Result.Failure,
		})
	}

	// Single replica: onboard over HTTP, then verify.
	srv, closeSys, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	created := postDataset(t, ts.URL)
	if created.Dataset.Fingerprint != ds.Info.Fingerprint {
		t.Fatalf("HTTP ingest fingerprint %s, direct %s", created.Dataset.Fingerprint, ds.Info.Fingerprint)
	}
	single := verifyClaims(t, ts.URL, docID, claims)
	ctx, cancel := contextWithTimeout(5 * time.Second)
	_ = srv.Shutdown(ctx)
	cancel()
	closeSys()

	if !reflect.DeepEqual(single, want) {
		t.Fatalf("single-replica verdicts diverge from direct run:\nserved %+v\ndirect %+v", single, want)
	}

	// 4-shard tier: the coordinator broadcasts the ingestion to every
	// replica, then routes the verification to whichever replica owns the
	// request's key.
	tier := bootShardTier(t, csvPath, 4, nil)
	coordCreated := postDataset(t, tier.coordTS.URL)
	if coordCreated.Dataset.Fingerprint != ds.Info.Fingerprint {
		t.Fatalf("coordinator ingest fingerprint %s, want %s", coordCreated.Dataset.Fingerprint, ds.Info.Fingerprint)
	}
	for i, rep := range tier.replicas {
		status, body := getJSONStatus(t, rep.ts.URL+"/v1/datasets/sales")
		if status != http.StatusOK {
			t.Fatalf("replica %d missing dataset after broadcast: %d", i, status)
		}
		var got serve.DatasetResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Dataset.Fingerprint != ds.Info.Fingerprint {
			t.Fatalf("replica %d fingerprint %s, want %s", i, got.Dataset.Fingerprint, ds.Info.Fingerprint)
		}
	}
	sharded := verifyClaims(t, tier.coordTS.URL, docID, claims)
	if !reflect.DeepEqual(sharded, want) {
		t.Fatalf("4-shard verdicts diverge from direct run:\nsharded %+v\ndirect %+v", sharded, want)
	}

	// The list view merges through the coordinator (first healthy replica).
	status, body := getJSONStatus(t, tier.coordTS.URL+"/v1/datasets")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/datasets via coordinator = %d", status)
	}
	var list serve.DatasetListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "sales" {
		t.Fatalf("coordinator dataset list = %s", body)
	}

	// DELETE broadcasts: afterwards every replica 404s the dataset.
	req, err := http.NewRequest(http.MethodDelete, tier.coordTS.URL+"/v1/datasets/sales", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE via coordinator = %d", resp.StatusCode)
	}
	for i, rep := range tier.replicas {
		if status, _ := getJSONStatus(t, rep.ts.URL+"/v1/datasets/sales"); status != http.StatusNotFound {
			t.Fatalf("replica %d still has dataset after broadcast delete: %d", i, status)
		}
	}
}

// TestDatasetEndpointValidation covers the single-server API edges: missing
// name, unknown dataset, base-table protection, and budget enforcement on
// oversized input.
func TestDatasetEndpointValidation(t *testing.T) {
	csvPath := writeCSVFixture(t)
	o := testOptions(t, csvPath)
	o.BatchWait = -1
	o.SampleRows = 3 // tiny row budget so the fixture triggers sampling
	srv, closeSys, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSys()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Missing name rejects.
	resp, err := http.Post(ts.URL+"/v1/datasets", "text/csv", strings.NewReader(salesFixtureCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless ingest = %d, want 400", resp.StatusCode)
	}

	// A name colliding with the -csv base table rejects.
	resp, err = http.Post(ts.URL+"/v1/datasets?name=airlines", "text/csv", strings.NewReader(salesFixtureCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("base-table collision = %d, want 400", resp.StatusCode)
	}

	// Unknown dataset 404s for GET and DELETE.
	if status, _ := getJSONStatus(t, ts.URL+"/v1/datasets/nope"); status != http.StatusNotFound {
		t.Fatalf("GET unknown dataset = %d, want 404", status)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown dataset = %d, want 404", resp.StatusCode)
	}

	// The server's -sample-rows default applies to ingestions that don't
	// set their own budget: 5 fixture rows through a 3-row reservoir.
	created := postDataset(t, ts.URL)
	if !created.Dataset.Sampled || created.Dataset.RowsKept != 3 || created.Dataset.RowsTotal != 5 {
		t.Fatalf("sampling budget not enforced: %+v", created.Dataset)
	}

	// Multipart upload round-trips too, registering a second dataset.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, f := range [][2]string{{"name", "sales2"}, {"seed", "1"}} {
		if err := mw.WriteField(f[0], f[1]); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := mw.CreateFormFile("file", "sales.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(fw, salesFixtureCSV); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multipart ingest = %d: %s", resp.StatusCode, body)
	}
	var out serve.DatasetResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Dataset.Name != "sales2" || !out.Dataset.Sampled {
		t.Fatalf("multipart ingest result: %+v", out.Dataset)
	}
}
