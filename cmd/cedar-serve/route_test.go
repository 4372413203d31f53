package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fee"
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
func routedWorkload(w int) []serve.VerifyRequest {
	out := make([]serve.VerifyRequest, 0, w)
	for i := 0; i < w; i++ {
		req := serve.VerifyRequest{
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

// TestRoutedShardedIdentity extends the sharded-identity contract to routed
// serving: with -route on, compound claims decompose at the coordinator and
// their sub-claims fan out across the ring by routed fingerprint, yet every
// shard count yields bit-identical recombined verdicts.
func TestRoutedShardedIdentity(t *testing.T) {
	airlinesCSV := writeCSVFixture(t)
	drinksCSV := writeDrinksFixture(t)
	reqs := routedWorkload(8)

	results := make(map[int]map[string][]serve.ClaimResult)
	for _, shards := range []int{1, 4} {
		tier := bootShardTier(t, airlinesCSV, shards, routedTune(drinksCSV))
		results[shards] = runShardWorkload(t, tier, reqs)
		if shards > 1 {
			touched := 0
			for _, rep := range tier.replicas {
				if len(rep.sink.all()) > 0 {
					touched++
				}
			}
			if touched < 2 {
				t.Errorf("only %d of %d replicas verified anything; routed fan-out is not spreading load", touched, shards)
			}
		}
	}

	base := results[1]
	for doc, claims := range base {
		for _, c := range claims {
			switch c.ID {
			case "mixed", "badmix":
				if !strings.HasPrefix(c.Method, "route(") {
					t.Errorf("%s/%s method = %q, want route(...) — compound claim was not decomposed", doc, c.ID, c.Method)
				}
				if !strings.Contains(c.Query, "; ") {
					t.Errorf("%s/%s query = %q, want joined sub-claim queries", doc, c.ID, c.Query)
				}
			case "simple":
				if strings.HasPrefix(c.Method, "route(") {
					t.Errorf("%s/%s is a simple claim but was routed: %q", doc, c.ID, c.Method)
				}
			}
			if c.ID == "mixed" && !c.Correct {
				t.Errorf("%s/mixed flagged incorrect; both conjuncts are true", doc)
			}
			if c.ID == "badmix" && c.Correct && c.Verified {
				t.Errorf("%s/badmix verified correct; the drinks conjunct is planted wrong", doc)
			}
		}
	}
	if !reflect.DeepEqual(base, results[4]) {
		t.Error("routed verdicts at 4 shards differ from 1 shard")
	}
}

// TestRoutedServingMatchesDirect pins cross-topology routing identity: the
// coordinator decomposing compound claims itself (sub-claims verified on
// ring replicas, recombined at the front end) answers exactly what a single
// route-enabled replica answers by routing internally via the library path.
// Content-addressed unit IDs are what makes the seeded verdicts line up.
func TestRoutedServingMatchesDirect(t *testing.T) {
	airlinesCSV := writeCSVFixture(t)
	drinksCSV := writeDrinksFixture(t)
	reqs := routedWorkload(6)

	o := testOptions(t, airlinesCSV)
	o.BatchWait = -1
	routedTune(drinksCSV)(o)
	srv, closeSys, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSys()
	direct := httptest.NewServer(srv)
	defer direct.Close()
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(10 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	client := &http.Client{Timeout: 60 * time.Second}
	directVerdicts := make(map[string][]serve.ClaimResult, len(reqs))
	directCounts := make(map[string][3]int, len(reqs))
	var directDollars fee.Fee
	for _, req := range reqs {
		resp, code := postShardVerify(t, client, direct.URL, req)
		if code != http.StatusOK {
			t.Fatalf("direct replica answered %d for %s", code, req.DocID)
		}
		directVerdicts[resp.DocID] = resp.Claims
		directCounts[resp.DocID] = [3]int{resp.Batch.Docs, resp.Batch.Claims, resp.Batch.Calls}
		directDollars += resp.Batch.Dollars
	}

	tier := bootShardTier(t, airlinesCSV, 4, routedTune(drinksCSV))
	var coordDollars fee.Fee
	coordVerdicts := make(map[string][]serve.ClaimResult, len(reqs))
	for _, req := range reqs {
		resp, code := postShardVerify(t, client, tier.coordTS.URL, req)
		if code != http.StatusOK {
			t.Fatalf("coordinator answered %d for %s", code, req.DocID)
		}
		coordVerdicts[resp.DocID] = resp.Claims
		// Batch stats describe the caller's request on both topologies: the
		// coordinator must not leak the expanded unit-document counts.
		if got, want := [3]int{resp.Batch.Docs, resp.Batch.Claims, resp.Batch.Calls}, directCounts[resp.DocID]; got != want {
			t.Errorf("%s batch docs/claims/calls = %v, want %v (direct replica)", resp.DocID, got, want)
		}
		coordDollars += resp.Batch.Dollars
	}

	if !reflect.DeepEqual(directVerdicts, coordVerdicts) {
		t.Error("coordinator-routed verdicts differ from the direct route-enabled replica")
	}
	// Fee identity: the coordinator books the routing fees its own planner
	// decided, the replicas book the unit verification — together exactly the
	// library path's ledger, to the nanodollar.
	if directDollars != coordDollars {
		t.Errorf("routed fees diverge across topologies: direct %d, coordinator %d nanodollars", directDollars, coordDollars)
	}
}

// TestRoutedBatchMergesCallerOrder drives the routed batch path: one
// request whose documents mix compound and simple claims comes back in
// caller order with recombined verdicts.
func TestRoutedBatchMergesCallerOrder(t *testing.T) {
	airlinesCSV := writeCSVFixture(t)
	drinksCSV := writeDrinksFixture(t)
	tier := bootShardTier(t, airlinesCSV, 4, routedTune(drinksCSV))

	reqs := routedWorkload(5)
	batch := serve.BatchRequest{}
	for _, r := range reqs {
		batch.Documents = append(batch.Documents, serve.DocumentInput{DocID: r.DocID, Claims: r.Claims})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tier.coordTS.URL+"/v1/verify/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed batch answered %d", resp.StatusCode)
	}
	var out serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
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
// no compound claims takes the ordinary relay path through a route-enabled
// coordinator — the response is byte-identical to a route-less tier's.
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
