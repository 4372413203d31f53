package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// writeDrinksFixture is the second database of the routed serving tests:
// vocabulary disjoint from the airlines fixture, so each conjunct of a
// compound claim has exactly one plausible home.
func writeDrinksFixture(t *testing.T) string {
	t.Helper()
	csvPath := filepath.Join(t.TempDir(), "drinks.csv")
	if err := os.WriteFile(csvPath, []byte(
		"country,beer_servings,wine_servings\n"+
			"France,127,370\n"+
			"Germany,346,175\n"+
			"Brazil,245,59\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return csvPath
}

// routedTune turns one tier option set into a route-enabled two-table
// deployment (airlines + drinks).
func routedTune(drinksCSV string) func(*serveOptions) {
	return func(o *serveOptions) {
		o.CSVPaths = append(o.CSVPaths, drinksCSV)
		o.Route = true
	}
}

// routedWorkload mixes compound claims spanning both tables (correct and
// incorrect conjuncts) with simple single-table claims.
func routedWorkload(w int) []serve.DocumentInput {
	out := make([]serve.DocumentInput, 0, w)
	for i := 0; i < w; i++ {
		req := serve.DocumentInput{
			DocID: fmt.Sprintf("routed-doc-%d", i),
			Claims: []serve.ClaimInput{
				{ID: "mixed", Sentence: "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014, and France recorded 370 wine servings.", Value: "2"},
				{ID: "simple", Sentence: "Aeroflot logged 76 incidents between 1985 and 1999.", Value: "76"},
			},
		}
		if i%2 == 0 {
			req.Claims = append(req.Claims, serve.ClaimInput{
				ID: "badmix", Sentence: "Aer Lingus recorded 0 fatal accidents between 2000 and 2014, and Germany recorded 999 wine servings.", Value: "0"})
		}
		out = append(out, req)
	}
	return out
}

// TestRoutedBatchMergesCallerOrder drives a routed batch through a
// coordinator: one request whose documents mix compound and simple claims
// comes back in caller order with verdicts its replica recombined.
func TestRoutedBatchMergesCallerOrder(t *testing.T) {
	airlinesCSV := writeCSVFixture(t)
	drinksCSV := writeDrinksFixture(t)
	tier := bootShardTier(t, airlinesCSV, 4, routedTune(drinksCSV))

	reqs := routedWorkload(5)
	var out serve.BatchResponse
	postJSON(t, tier.coordTS.URL+"/v1/verify/batch", serve.BatchRequest{Documents: reqs}, &out)
	if len(out.Documents) != len(reqs) {
		t.Fatalf("%d documents answered, want %d", len(out.Documents), len(reqs))
	}
	for i, d := range out.Documents {
		if d.DocID != reqs[i].DocID {
			t.Fatalf("document %d is %s, want %s — caller order not preserved", i, d.DocID, reqs[i].DocID)
		}
		if len(d.Claims) != len(reqs[i].Claims) {
			t.Fatalf("%s answered %d claims, want %d", d.DocID, len(d.Claims), len(reqs[i].Claims))
		}
		for j, c := range d.Claims {
			if c.ID != reqs[i].Claims[j].ID {
				t.Errorf("%s claim %d is %s, want %s", d.DocID, j, c.ID, reqs[i].Claims[j].ID)
			}
		}
		if m := d.Claims[0].Method; !strings.HasPrefix(m, "route(") {
			t.Errorf("%s compound claim method = %q, want route(...)", d.DocID, m)
		}
	}
	if out.Batch.Dollars <= 0 || out.Batch.Calls <= 0 {
		t.Errorf("routed batch stats empty: %+v", out.Batch)
	}
}

// TestRoutedCoordinatorPassthrough pins the degenerate case: a request with
// no compound claims through a route-enabled tier is answered byte for byte
// as a route-less tier answers it.
func TestRoutedCoordinatorPassthrough(t *testing.T) {
	airlinesCSV := writeCSVFixture(t)
	drinksCSV := writeDrinksFixture(t)
	plain := bootShardTier(t, airlinesCSV, 1, func(o *serveOptions) {
		o.CSVPaths = append(o.CSVPaths, drinksCSV)
	})
	routed := bootShardTier(t, airlinesCSV, 1, routedTune(drinksCSV))

	req := serve.VerifyRequest{DocID: "simple-doc", Claims: testClaims}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(base string) []byte {
		t.Helper()
		resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s answered %d", base, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	plainBody := fetch(plain.coordTS.URL)
	routedBody := fetch(routed.coordTS.URL)
	if !bytes.Equal(plainBody, routedBody) {
		t.Errorf("simple-claim response differs with routing enabled:\nplain:  %s\nrouted: %s", plainBody, routedBody)
	}
}
