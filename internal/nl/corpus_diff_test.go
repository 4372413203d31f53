package nl_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/nl"
	"repro/internal/sqldb"
)

// TestDifferentialParseMaskedCorpora holds the compiled ParseMasked to the
// reference on every claim of every data generator corpus, with and without
// its context, against the schema of its own database and — so that columns
// of one table meet the phrases of another — against every other schema of
// its corpus and against a serving catalog of eight tables. Candidate scores
// must agree bit for bit, on a cold resolver memo and again on the warm one.
func TestDifferentialParseMaskedCorpora(t *testing.T) {
	corpora := map[string][]*claim.Document{}
	add := func(name string, docs []*claim.Document, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		corpora[name] = docs
	}
	docs, err := data.AggChecker(31)
	add("AggChecker", docs, err)
	docs, err = data.TabFact(31)
	add("TabFact", docs, err)
	docs, err = data.WikiText(31)
	add("WikiText", docs, err)
	docs, err = data.UnitConv(31, true)
	add("UnitConv aligned", docs, err)
	docs, err = data.UnitConv(31, false)
	add("UnitConv converted", docs, err)
	flat, norm, err := data.JoinBench(31)
	add("JoinBench flat", flat, err)
	add("JoinBench normalized", norm, nil)
	rb, err := data.RouteBench(31)
	if err != nil {
		t.Fatal(err)
	}
	add("RouteBench", rb.Docs, nil)

	catalog := servingCatalog(t, corpora)

	// The distinct schema texts of each corpus, parsed once: the first pass
	// meets every schema's resolver cold, the second reuses it warm.
	corpusSchemas := map[string]map[string]*nl.Schema{}
	for name, docs := range corpora {
		schemas := map[string]*nl.Schema{"catalog": nl.ParseSchemaText(catalog)}
		for _, d := range docs {
			text := d.Data.Schema()
			if schemas[text] == nil {
				schemas[text] = nl.ParseSchemaText(text)
			}
		}
		if name == "RouteBench" {
			for _, db := range rb.Databases {
				schemas[db.Schema()] = nl.ParseSchemaText(db.Schema())
			}
		}
		corpusSchemas[name] = schemas
	}

	lex := nl.DefaultLexicon()
	for _, pass := range []string{"cold", "warm"} {
		claims, parsed := 0, 0
		for name, docs := range corpora {
			schemas := corpusSchemas[name]
			for _, d := range docs {
				for _, c := range d.Claims {
					claims++
					masked, ctx := c.Masked()
					for _, schema := range schemas {
						for _, ctx := range []string{"", ctx} {
							want, wantErr := nl.ReferenceParseMasked(masked, schema, lex, ctx)
							got, gotErr := nl.ParseMasked(masked, schema, lex, ctx)
							if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
								t.Fatalf("%s %s %s: error %v, reference %v", pass, name, c.ID, gotErr, wantErr)
							}
							if !sameParse(got, want) {
								t.Fatalf("%s %s %s %q:\n got %+v\nwant %+v", pass, name, c.ID, masked, got, want)
							}
							if got != nil {
								parsed++
							}
						}
					}
				}
			}
		}
		if claims < 700 || parsed < claims {
			t.Fatalf("differential covered %d claims and %d successful parses; the corpora should give more", claims, parsed)
		}
		t.Logf("%s memo: %d claims, %d parses compared", pass, claims, parsed)
	}
}

// servingCatalog is the schema text of one database holding the first eight
// distinct tables of the corpora, the way a serving replica hosts a catalog.
func servingCatalog(t *testing.T, corpora map[string][]*claim.Document) string {
	t.Helper()
	catalog := sqldb.NewDatabase("catalog")
	var names []string
	for name := range corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, d := range corpora[name] {
			for _, tab := range d.Data.Tables() {
				if len(catalog.Tables()) < 8 && catalog.Table(tab.Name) == nil {
					catalog.AddTable(tab)
				}
			}
		}
	}
	if n := len(catalog.Tables()); n != 8 {
		t.Fatalf("catalog has %d tables, want 8", n)
	}
	return catalog.Schema()
}

// sameParse is reflect.DeepEqual with every candidate's floats compared bit
// for bit.
func sameParse(a, b *nl.Parsed) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	if a == nil {
		return true
	}
	same := func(x, y []nl.Candidate) bool {
		for i := range x {
			if math.Float64bits(x[i].Score) != math.Float64bits(y[i].Score) ||
				math.Float64bits(x[i].ConvFactor) != math.Float64bits(y[i].ConvFactor) {
				return false
			}
		}
		return true
	}
	return same(a.ColumnCands, b.ColumnCands) && same(a.FilterCands, b.FilterCands) &&
		math.Float64bits(a.Spec.ConvFactor) == math.Float64bits(b.Spec.ConvFactor)
}
