package nl_test

import (
	"reflect"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/nl"
)

// TestDifferentialParseMaskedCorpora holds the compiled ParseMasked to the
// reference on every claim of every data generator corpus, with and without
// its context, against the schema of its own database and — so that columns
// of one table meet the phrases of another — against every other schema of
// its corpus.
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

	lex := nl.DefaultLexicon()
	claims, parsed := 0, 0
	for name, docs := range corpora {
		schemas := map[string]*nl.Schema{} // distinct schema texts of the corpus
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
		for _, d := range docs {
			for _, c := range d.Claims {
				claims++
				masked, ctx := c.Masked()
				for _, schema := range schemas {
					for _, ctx := range []string{"", ctx} {
						want, wantErr := nl.ReferenceParseMasked(masked, schema, lex, ctx)
						got, gotErr := nl.ParseMasked(masked, schema, lex, ctx)
						if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
							t.Fatalf("%s %s: error %v, reference %v", name, c.ID, gotErr, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s %q:\n got %+v\nwant %+v", name, c.ID, masked, got, want)
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
	t.Logf("%d claims, %d parses compared", claims, parsed)
}
