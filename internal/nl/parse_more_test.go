package nl

import (
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/textutil"
)

// filterDB has both a measure and a small-cardinality filter column so the
// filtered Sum/Avg template variants can round-trip.
func filterDB(t testing.TB) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase("f")
	tab := sqldb.NewTable("airlines", "airline", "fatal_accidents_00_14", "fatalities_00_14")
	tab.MustAppendRow(sqldb.Text("A"), sqldb.Int(0), sqldb.Int(10))
	tab.MustAppendRow(sqldb.Text("B"), sqldb.Int(2), sqldb.Int(100))
	tab.MustAppendRow(sqldb.Text("C"), sqldb.Int(2), sqldb.Int(200))
	db.AddTable(tab)
	return db
}

// TestFilteredAggregateRoundTrip covers the "with <filter> of <v>" template
// variants of Sum and Avg.
func TestFilteredAggregateRoundTrip(t *testing.T) {
	db := filterDB(t)
	schema := SchemaFromDatabase(db)
	lex := DefaultLexicon()
	for _, kind := range []Kind{KindSum, KindAvg} {
		spec := Spec{
			Kind:      kind,
			Column:    "fatalities_00_14",
			FilterCol: "fatal_accidents_00_14",
			FilterVal: "2",
			Noun:      "airlines",
		}
		goldSQL, err := BuildSQL(schema, &spec)
		if err != nil {
			t.Fatal(err)
		}
		goldVal, err := sqldb.QueryScalar(db, goldSQL)
		if err != nil {
			t.Fatal(err)
		}
		sentence := RenderSentence(&spec, lex, RenderOptions{Value: goldVal.String()})
		span, ok := textutil.FindValueSpan(sentence, goldVal.String())
		if !ok {
			t.Fatalf("%v: value not in %q", kind, sentence)
		}
		masked := textutil.MaskSpan(sentence, span)
		parsed, err := ParseMasked(masked, schema, lex, "")
		if err != nil {
			t.Fatalf("%v: parse %q: %v", kind, masked, err)
		}
		if parsed.Spec.Kind != kind || parsed.Spec.FilterCol != "fatal_accidents_00_14" || parsed.Spec.FilterVal != "2" {
			t.Fatalf("%v: parsed %+v", kind, parsed.Spec)
		}
		gotSQL, err := BuildSQL(schema, &parsed.Spec)
		if err != nil {
			t.Fatal(err)
		}
		gotVal, err := sqldb.QueryScalar(db, gotSQL)
		if err != nil {
			t.Fatal(err)
		}
		if gotVal.String() != goldVal.String() {
			t.Errorf("%v: %v vs %v", kind, gotVal, goldVal)
		}
	}
}

func TestParseMalformedTemplateVariants(t *testing.T) {
	db := filterDB(t)
	schema := SchemaFromDatabase(db)
	lex := DefaultLexicon()
	malformed := []string{
		"The data covers exactly airlines.",             // CountAll without x
		"Exactly airlines recorded things of 3.",        // Count without x
		"A total of fatalities were recorded across.",   // Sum without x
		"On average, the airlines did nothing.",         // Avg without value marker
		"Exactly x airlines recorded no filter marker.", // Count without " of "
	}
	for _, s := range malformed {
		if _, err := ParseMasked(s, schema, lex, ""); err == nil {
			t.Errorf("expected parse failure for %q", s)
		}
	}
}

func TestFromClauseExported(t *testing.T) {
	db := filterDB(t)
	schema := SchemaFromDatabase(db)
	from, err := FromClause(schema, []string{"fatalities_00_14", "airline"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(from, "airlines") {
		t.Errorf("from = %q", from)
	}
	if _, err := FromClause(schema, []string{"missing_col"}); err == nil {
		t.Error("expected error for missing column")
	}
	if _, err := FromClause(schema, nil); err == nil {
		t.Error("expected error for empty column list")
	}
}

func TestResolveTableFallback(t *testing.T) {
	db := filterDB(t)
	schema := SchemaFromDatabase(db)
	lex := DefaultLexicon()
	// A noun that matches nothing falls back to a table with an entity
	// column rather than nil.
	tab := (&compiledResolver{sr: resolverOf(schema, lex), schema: schema}).table("zzzzqq")
	if tab == nil || tab.Name != "airlines" {
		t.Errorf("fallback table = %+v", tab)
	}
}

func TestCutLast(t *testing.T) {
	before, after, ok := cutLast("a of b of c", " of ")
	if !ok || before != "a of b" || after != "c" {
		t.Errorf("cutLast = %q %q %v", before, after, ok)
	}
	if _, _, ok := cutLast("nothing here", " of "); ok {
		t.Error("cutLast found absent separator")
	}
}

func TestFirstEntityColumn(t *testing.T) {
	db := filterDB(t)
	if got := firstEntityColumn(SchemaFromDatabase(db)); got != "airline" {
		t.Errorf("firstEntityColumn = %q", got)
	}
	empty := &Schema{Tables: []SchemaTable{{Name: "t", Columns: []SchemaColumn{{Name: "v", Type: "INTEGER"}}}}}
	if got := firstEntityColumn(empty); got != "" {
		t.Errorf("expected no entity column, got %q", got)
	}
}
