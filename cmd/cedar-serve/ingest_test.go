package main

import (
	"bytes"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// TestCoordinatorDatasetBroadcast: a dataset posted to a coordinator reaches
// every replica, the list view merges through the coordinator, and a DELETE
// reaches every replica too. (That the replicas then hold equal fingerprints
// and verify the dataset's claims as a direct run does is a cell of
// TestIdentityMatrix.)
func TestCoordinatorDatasetBroadcast(t *testing.T) {
	tier := bootShardTier(t, writeCSVFixture(t), 2, nil)
	postDataset(t, tier.coordTS.URL)
	for i, rep := range tier.replicas {
		if status, _ := getJSONStatus(t, rep.ts.URL+"/v1/datasets/sales"); status != http.StatusOK {
			t.Fatalf("replica %d missing dataset after broadcast: %d", i, status)
		}
	}
	status, body := getJSONStatus(t, tier.coordTS.URL+"/v1/datasets")
	var list serve.DatasetListResponse
	if err := json.Unmarshal(body, &list); err != nil || status != http.StatusOK || len(list.Datasets) != 1 || list.Datasets[0].Name != "sales" {
		t.Fatalf("coordinator dataset list = %d %s (%v)", status, body, err)
	}
	req, err := http.NewRequest(http.MethodDelete, tier.coordTS.URL+"/v1/datasets/sales", nil)
	must(t, err)
	resp, err := http.DefaultClient.Do(req)
	must(t, err)
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
	srv, closeSys, err := newServer(o, nil)
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
