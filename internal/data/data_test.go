package data

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/nl"
	"repro/internal/sqldb"
	"repro/internal/textutil"
)

// validateGold checks the generator's core invariants on a corpus: every
// gold query executes to a single cell, correct claims round-match their
// gold value, incorrect claims do not, and the claim value sits at the
// recorded span.
func validateGold(t *testing.T, docs []*claim.Document) {
	t.Helper()
	for _, d := range docs {
		for _, c := range d.Claims {
			v, err := sqldb.QueryScalar(d.Data, c.Gold.Query)
			if err != nil {
				t.Fatalf("%s: gold query %q: %v", c.ID, c.Gold.Query, err)
			}
			if c.IsNumeric() {
				f, ok := v.AsFloat()
				if !ok {
					t.Fatalf("%s: numeric claim with non-numeric gold %v", c.ID, v)
				}
				if got := textutil.RoundMatches(c.Value, f); got != c.Gold.Correct {
					t.Errorf("%s: RoundMatches(%q, %v) = %v, labelled correct=%v (query %s)",
						c.ID, c.Value, f, got, c.Gold.Correct, c.Gold.Query)
				}
			} else {
				if got := v.Text() == c.Value; got != c.Gold.Correct {
					t.Errorf("%s: textual match %q vs %q = %v, labelled %v",
						c.ID, c.Value, v.Text(), got, c.Gold.Correct)
				}
			}
			if !c.Span.Valid() || c.Span.End >= len(textutil.Tokenize(c.Sentence)) {
				t.Errorf("%s: span %+v outside %q", c.ID, c.Span, c.Sentence)
			}
			if !strings.Contains(c.Context, c.Sentence) {
				t.Errorf("%s: context does not contain sentence", c.ID)
			}
			masked, mctx := c.Masked()
			// Token-level leak check: the claim-value token must be gone
			// (substring matches like "199" inside the year "1999" are
			// fine).
			for _, tok := range textutil.Tokenize(masked) {
				if strings.Trim(tok, ".,;:") == c.Value {
					t.Errorf("%s: masked sentence leaks value %q: %q", c.ID, c.Value, masked)
				}
			}
			if !strings.Contains(mctx, masked) {
				t.Errorf("%s: masked context missing masked sentence", c.ID)
			}
		}
	}
}

func TestAggCheckerShape(t *testing.T) {
	docs, err := AggChecker(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 56 {
		t.Fatalf("docs = %d", len(docs))
	}
	if n := claim.TotalClaims(docs); n != 392 {
		t.Fatalf("claims = %d want 392", n)
	}
	domains := map[string]int{}
	for _, d := range docs {
		domains[d.Domain]++
	}
	for _, dom := range []string{Domain538, DomainStackOverflow, DomainNYTimes, DomainWikipedia} {
		if domains[dom] != 14 {
			t.Errorf("domain %s has %d docs", dom, domains[dom])
		}
	}
	inc := 0
	for _, d := range docs {
		for _, c := range d.Claims {
			if !c.Gold.Correct {
				inc++
			}
		}
	}
	if inc < 25 || inc > 95 {
		t.Errorf("incorrect claims = %d, want near 15%% of 392", inc)
	}
	validateGold(t, docs)
}

func TestAggCheckerDeterministic(t *testing.T) {
	a, err := AggChecker(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AggChecker(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i].Claims {
			ca, cb := a[i].Claims[j], b[i].Claims[j]
			if ca.Sentence != cb.Sentence || ca.Gold.Query != cb.Gold.Query || ca.Gold.Correct != cb.Gold.Correct {
				t.Fatalf("nondeterministic generation at %s", ca.ID)
			}
		}
	}
}

func TestTabFactShape(t *testing.T) {
	docs, err := TabFact(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 28 {
		t.Fatalf("docs = %d", len(docs))
	}
	if n := claim.TotalClaims(docs); n != 100 {
		t.Fatalf("claims = %d want 100", n)
	}
	validateGold(t, docs)
}

func TestWikiTextShape(t *testing.T) {
	docs, err := WikiText(13)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 14 {
		t.Fatalf("docs = %d", len(docs))
	}
	if n := claim.TotalClaims(docs); n != 50 {
		t.Fatalf("claims = %d want 50", n)
	}
	for _, d := range docs {
		for _, c := range d.Claims {
			if c.IsNumeric() {
				t.Errorf("%s: WikiText claim is numeric: %q", c.ID, c.Value)
			}
		}
	}
	validateGold(t, docs)
}

func TestUnitConvPairing(t *testing.T) {
	aligned, err := UnitConv(5, true)
	if err != nil {
		t.Fatal(err)
	}
	converted, err := UnitConv(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if claim.TotalClaims(aligned) != 20 || claim.TotalClaims(converted) != 20 {
		t.Fatalf("claims = %d / %d", claim.TotalClaims(aligned), claim.TotalClaims(converted))
	}
	validateGold(t, aligned)
	validateGold(t, converted)
	// Paired documents cover the same claims; converted ones include at
	// least some unit-converted gold queries (multiplication factor).
	convCount := 0
	for i := range converted {
		for j := range converted[i].Claims {
			if strings.Contains(converted[i].Claims[j].Gold.Query, "*") &&
				!strings.Contains(aligned[i].Claims[j].Gold.Query, "*") {
				convCount++
			}
		}
	}
	if convCount == 0 {
		t.Error("no unit-converted gold queries in converted variant")
	}
}

func TestJoinBenchNormalization(t *testing.T) {
	flat, norm, err := JoinBench(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != len(norm) {
		t.Fatalf("doc counts differ: %d vs %d", len(flat), len(norm))
	}
	validateGold(t, flat)
	validateGold(t, norm)
	joins := 0
	for i := range norm {
		if len(norm[i].Data.Tables()) < 2 {
			t.Errorf("doc %s not normalized", norm[i].ID)
		}
		for j := range norm[i].Claims {
			fc, nc := flat[i].Claims[j], norm[i].Claims[j]
			if fc.Sentence != nc.Sentence || fc.Gold.Correct != nc.Gold.Correct {
				t.Errorf("claim text/label changed under normalization: %s", nc.ID)
			}
			if strings.Contains(nc.Gold.Query, "JOIN") {
				joins++
			}
			// Both gold queries must produce the same value.
			fv, err1 := sqldb.QueryScalar(flat[i].Data, fc.Gold.Query)
			nv, err2 := sqldb.QueryScalar(norm[i].Data, nc.Gold.Query)
			if err1 != nil || err2 != nil {
				t.Fatalf("gold exec: %v / %v", err1, err2)
			}
			if fv.String() != nv.String() {
				t.Errorf("%s: flat=%v norm=%v", nc.ID, fv, nv)
			}
		}
	}
	if joins == 0 {
		t.Error("no join queries in JoinBench gold")
	}
}

func TestNormalizeTableTableCount(t *testing.T) {
	// The paper's JoinBench has 23 tables from three schemas; our three
	// specs normalize to 8 + 5 + 10 = 23.
	total := 0
	for _, name := range []string{"airlines", "drinks", "so_survey"} {
		spec := corpusTables[name]
		tab := BuildTable(spec, rand.New(rand.NewSource(1)), 0)
		db, err := NormalizeTable(tab, name+"_n")
		if err != nil {
			t.Fatal(err)
		}
		total += len(db.Tables())
	}
	if total != 23 {
		t.Errorf("normalized table count = %d want 23", total)
	}
}

func TestBuildDatabaseUnknownTable(t *testing.T) {
	if _, err := BuildDatabase("x", rand.New(rand.NewSource(1)), 0, "nope"); err == nil {
		t.Error("expected error for unknown table")
	}
}

func TestCorpusLexiconCoverage(t *testing.T) {
	// Every corpus column must have a lexicon phrase so sentences render
	// with real English rather than raw headers.
	lex := nl.DefaultLexicon()
	for name, spec := range corpusTables {
		for _, m := range spec.measures {
			if _, ok := lex.Columns[strings.ToLower(m.name)]; !ok {
				t.Errorf("table %s column %s missing from lexicon", name, m.name)
			}
		}
		if lex.TableNoun(spec.name) == spec.name && spec.name != spec.noun {
			t.Errorf("table %s missing noun in lexicon", name)
		}
	}
}

func TestGenerateHazardRates(t *testing.T) {
	docs, err := Generate(GenConfig{
		Seed: 9, Docs: 20, ClaimsPerDoc: 6, IncorrectRate: 0.2,
		AliasRate: 1.0, Domains: []string{Domain538},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With AliasRate 1, lookup claims over aliased entities must render
	// the alias, which then must NOT appear verbatim in the data.
	aliased := 0
	for _, d := range docs {
		for _, c := range d.Claims {
			for _, alias := range []string{"United Airlines", "Delta Air Lines", "the United States", "America", "Britain"} {
				if strings.Contains(c.Sentence, alias) {
					aliased++
				}
			}
		}
	}
	if aliased == 0 {
		t.Error("alias hazard never materialized at rate 1.0")
	}
	validateGold(t, docs)
}

func TestNormalizeErrors(t *testing.T) {
	// Multi-table document rejected.
	db, err := BuildDatabase("multi", rand.New(rand.NewSource(1)), 0, "airlines", "drinks")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NormalizeDocument(&claim.Document{ID: "x", Data: db}); err == nil {
		t.Error("expected error for multi-table document")
	}
	// Table without an entity column rejected.
	raw := sqldb.NewTable("noent", "v1", "v2")
	raw.MustAppendRow(sqldb.Int(1), sqldb.Int(2))
	if _, err := NormalizeTable(raw, "n"); err == nil {
		t.Error("expected error for entity-less table")
	}
}

func TestTableNamesComplete(t *testing.T) {
	for name := range corpusTables {
		if _, err := BuildDatabase("db", rand.New(rand.NewSource(1)), 3, name); err != nil {
			t.Errorf("corpus table %s: %v", name, err)
		}
	}
}

func TestGenerateUnknownDomain(t *testing.T) {
	if _, err := Generate(GenConfig{Seed: 1, Docs: 1, ClaimsPerDoc: 1, Domains: []string{"Mars"}}); err == nil {
		t.Error("expected error for unknown domain")
	}
}
