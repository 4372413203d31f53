package nl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/textutil"
)

func fixtureDB(t testing.TB) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase("airlinesafety")
	tab := sqldb.NewTable("airlines", "airline", "incidents_85_99", "fatal_accidents_00_14", "fatalities_00_14", "avail_seat_km_per_week")
	rows := []struct {
		a          string
		i, f, d, s int64
	}{
		{"Aer Lingus", 2, 0, 0, 320906734},
		{"Aeroflot", 76, 1, 88, 1197672318},
		{"Malaysia Airlines", 3, 2, 537, 1039171244},
		{"United / Continental", 19, 2, 109, 7139291291},
	}
	for _, r := range rows {
		tab.MustAppendRow(sqldb.Text(r.a), sqldb.Int(r.i), sqldb.Int(r.f), sqldb.Int(r.d), sqldb.Int(r.s))
	}
	db.AddTable(tab)
	return db
}

func normalizedDB(t testing.TB) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase("airlinesafety_norm")
	ents := sqldb.NewTable("airlines", "airline_id", "airline")
	ents.MustAppendRow(sqldb.Int(1), sqldb.Text("Aer Lingus"))
	ents.MustAppendRow(sqldb.Int(2), sqldb.Text("Malaysia Airlines"))
	safety := sqldb.NewTable("safety", "airline_id", "fatal_accidents_00_14", "fatalities_00_14")
	safety.MustAppendRow(sqldb.Int(1), sqldb.Int(0), sqldb.Int(0))
	safety.MustAppendRow(sqldb.Int(2), sqldb.Int(2), sqldb.Int(537))
	db.AddTable(ents)
	db.AddTable(safety)
	return db
}

// TestRenderParseRoundTrip is the central invariant of the claim language:
// for every kind, rendering a spec, masking the value, parsing it back, and
// building SQL yields a query whose result equals the gold query's result.
func TestRenderParseRoundTrip(t *testing.T) {
	db := fixtureDB(t)
	schema := SchemaFromDatabase(db)
	lex := DefaultLexicon()
	specs := []Spec{
		{Kind: KindLookup, Column: "fatal_accidents_00_14", EntityCol: "airline", EntityVal: "Malaysia Airlines", Noun: "airlines"},
		{Kind: KindCountAll, EntityCol: "airline", Noun: "airlines"},
		{Kind: KindCount, FilterCol: "fatal_accidents_00_14", FilterVal: "2", Noun: "airlines"},
		{Kind: KindSum, Column: "fatalities_00_14", Noun: "airlines"},
		{Kind: KindSum, Column: "fatalities_00_14", FilterCol: "fatal_accidents_00_14", FilterVal: "2", Noun: "airlines"},
		{Kind: KindAvg, Column: "incidents_85_99", Noun: "airlines"},
		{Kind: KindMin, Column: "incidents_85_99", Noun: "airlines"},
		{Kind: KindMax, Column: "fatalities_00_14", Noun: "airlines"},
		{Kind: KindDiff, Column: "incidents_85_99", Noun: "airlines"},
		{Kind: KindArgMax, Column: "fatalities_00_14", EntityCol: "airline", Noun: "airlines"},
		{Kind: KindArgMin, Column: "incidents_85_99", EntityCol: "airline", Noun: "airlines"},
		{Kind: KindPercent, EntityCol: "airline", FilterCol: "fatal_accidents_00_14", FilterVal: "2", Noun: "airlines"},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Kind.String(), func(t *testing.T) {
			goldSQL, err := BuildSQL(schema, &spec)
			if err != nil {
				t.Fatalf("gold BuildSQL: %v", err)
			}
			goldVal, err := sqldb.QueryScalar(db, goldSQL)
			if err != nil {
				t.Fatalf("gold query %q: %v", goldSQL, err)
			}
			sentence := RenderSentence(&spec, lex, RenderOptions{Value: goldVal.String()})
			span, ok := textutil.FindValueSpan(sentence, goldVal.String())
			if !ok {
				t.Fatalf("value %q not found in sentence %q", goldVal.String(), sentence)
			}
			masked := textutil.MaskSpan(sentence, span)
			parsed, err := ParseMasked(masked, schema, lex, "")
			if err != nil {
				t.Fatalf("ParseMasked(%q): %v", masked, err)
			}
			if parsed.Spec.Kind != spec.Kind {
				t.Fatalf("kind = %v want %v (masked %q)", parsed.Spec.Kind, spec.Kind, masked)
			}
			gotSQL, err := BuildSQL(schema, &parsed.Spec)
			if err != nil {
				t.Fatalf("BuildSQL(parsed): %v", err)
			}
			gotVal, err := sqldb.QueryScalar(db, gotSQL)
			if err != nil {
				t.Fatalf("parsed query %q: %v", gotSQL, err)
			}
			if gotVal.String() != goldVal.String() {
				t.Errorf("parsed %q -> %v, gold %q -> %v", gotSQL, gotVal, goldSQL, goldVal)
			}
		})
	}
}

func TestBuildSQLJoins(t *testing.T) {
	db := normalizedDB(t)
	schema := SchemaFromDatabase(db)
	spec := Spec{Kind: KindLookup, Column: "fatal_accidents_00_14", EntityCol: "airline", EntityVal: "Malaysia Airlines"}
	sql, err := BuildSQL(schema, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "JOIN") {
		t.Errorf("expected join in %q", sql)
	}
	v, err := sqldb.QueryScalar(db, sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	if n, _ := v.AsInt(); n != 2 {
		t.Errorf("join lookup = %v", v)
	}

	// ArgMax across the join.
	am := Spec{Kind: KindArgMax, Column: "fatalities_00_14", EntityCol: "airline"}
	sql, err = BuildSQL(schema, &am)
	if err != nil {
		t.Fatal(err)
	}
	v, err = sqldb.QueryScalar(db, sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	if v.Text() != "Malaysia Airlines" {
		t.Errorf("argmax = %v", v)
	}
}

func TestBuildSQLErrors(t *testing.T) {
	schema := &Schema{Tables: []SchemaTable{
		{Name: "a", Columns: []SchemaColumn{{Name: "x", Type: "INTEGER"}}},
		{Name: "b", Columns: []SchemaColumn{{Name: "y", Type: "INTEGER"}}},
	}}
	if _, err := BuildSQL(schema, &Spec{Kind: KindSum, Column: "zz"}); !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing column err = %v", err)
	}
	// x and y live in unjoinable tables.
	if _, err := BuildSQL(schema, &Spec{Kind: KindLookup, Column: "x", EntityCol: "y", EntityVal: "v"}); !errors.Is(err, ErrNoJoinPath) {
		t.Errorf("no join path err = %v", err)
	}
}

func TestParseSchemaText(t *testing.T) {
	db := fixtureDB(t)
	text := db.Schema()
	schema := ParseSchemaText(text)
	if len(schema.Tables) != 1 {
		t.Fatalf("tables = %+v", schema.Tables)
	}
	tab := schema.Tables[0]
	if tab.Name != "airlines" || len(tab.Columns) != 5 {
		t.Fatalf("table = %+v", tab)
	}
	if tab.Columns[0].Name != "airline" || tab.Columns[0].Type != "TEXT" {
		t.Errorf("col0 = %+v", tab.Columns[0])
	}
	if !schema.IsTextColumn("airline") || schema.IsTextColumn("fatalities_00_14") {
		t.Error("IsTextColumn misclassifies")
	}
	// Quoted identifiers with spaces survive.
	s2 := ParseSchemaText(`CREATE TABLE "grand prix" ("Driver Name" TEXT, "Wins" INTEGER);`)
	if s2.Tables[0].Name != "grand prix" || s2.Tables[0].Columns[0].Name != "Driver Name" {
		t.Errorf("quoted schema = %+v", s2.Tables[0])
	}
	// Garbage lines are skipped.
	s3 := ParseSchemaText("hello\nCREATE TABLE t (a INTEGER);\nworld")
	if len(s3.Tables) != 1 {
		t.Errorf("garbage tolerance: %+v", s3.Tables)
	}
}

func TestAmbiguityDetectionAndContextBoost(t *testing.T) {
	db := sqldb.NewDatabase("amb")
	tab := sqldb.NewTable("airlines", "airline", "fatal_accidents_85_99", "fatal_accidents_00_14")
	tab.MustAppendRow(sqldb.Text("A"), sqldb.Int(1), sqldb.Int(2))
	db.AddTable(tab)
	schema := SchemaFromDatabase(db)
	lex := DefaultLexicon()

	// The underspecified phrase ties between the two period columns.
	masked := "The highest fatal accidents recorded was x."
	parsed, err := ParseMasked(masked, schema, lex, "")
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Ambiguous {
		t.Errorf("expected ambiguity, candidates: %+v", parsed.ColumnCands)
	}

	// A context mentioning the 2000-2014 period breaks the tie.
	ctx := "All figures refer to the period between 2000 and 2014."
	parsed, err = ParseMasked(masked, schema, lex, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Spec.Column != "fatal_accidents_00_14" {
		t.Errorf("context should pick 00_14, got %q (cands %+v)", parsed.Spec.Column, parsed.ColumnCands)
	}
}

func TestUnitConversionParsing(t *testing.T) {
	db := sqldb.NewDatabase("units")
	tab := sqldb.NewTable("cities", "city", "area_km2", "elevation_m")
	tab.MustAppendRow(sqldb.Text("Denver"), sqldb.Float(401.3), sqldb.Int(1609))
	db.AddTable(tab)
	schema := SchemaFromDatabase(db)
	lex := DefaultLexicon()

	spec := Spec{Kind: KindLookup, Column: "elevation_m", EntityCol: "city", EntityVal: "Denver", ConvFactor: 3.28084, Noun: "cities"}
	unit, factor, ok := lex.ConvertedUnitFor("elevation_m")
	if !ok || unit != "feet" {
		t.Fatalf("ConvertedUnitFor = %q %v %v", unit, factor, ok)
	}
	phrase := strings.Replace(lex.ColumnPhrase("elevation_m"), "metres", unit, 1)
	sentence := RenderSentence(&spec, lex, RenderOptions{Value: "5279", ColumnPhrase: phrase})
	span, ok := textutil.FindValueSpan(sentence, "5279")
	if !ok {
		t.Fatalf("no span in %q", sentence)
	}
	masked := textutil.MaskSpan(sentence, span)
	parsed, err := ParseMasked(masked, schema, lex, "")
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Spec.Column != "elevation_m" {
		t.Fatalf("column = %q", parsed.Spec.Column)
	}
	if parsed.Spec.ConvFactor < 3.2 || parsed.Spec.ConvFactor > 3.3 {
		t.Errorf("conv factor = %v", parsed.Spec.ConvFactor)
	}
	sql, err := BuildSQL(schema, &parsed.Spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sqldb.QueryScalar(db, sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	f, _ := v.AsFloat()
	if f < 5270 || f < 0 || f > 5290 {
		t.Errorf("converted elevation = %v", v)
	}
}

func TestParseUnparseable(t *testing.T) {
	db := fixtureDB(t)
	schema := SchemaFromDatabase(db)
	lex := DefaultLexicon()
	for _, s := range []string{
		"", "This sentence has no template.", "x", "Exactly pancakes.",
	} {
		if _, err := ParseMasked(s, schema, lex, ""); !errors.Is(err, ErrUnparseable) {
			t.Errorf("ParseMasked(%q) err = %v", s, err)
		}
	}
}

func TestLexiconConversions(t *testing.T) {
	lex := DefaultLexicon()
	if unit, f, ok := lex.ConvertedUnitFor("avail_seat_km_per_week"); !ok || unit != "miles" || f < 0.62 || f > 0.63 {
		t.Errorf("km column converts to %q x%v (%v), want miles x0.621", unit, f, ok)
	}
	if unit, f, ok := lex.ConvertedUnitFor("area_km2"); !ok || unit != "square miles" || f < 0.38 || f > 0.39 {
		t.Errorf("km² column converts to %q x%v (%v), want square miles x0.386", unit, f, ok)
	}
	if unit, _, ok := lex.ConvertedUnitFor("airline"); ok {
		t.Errorf("unitless column converts to %q", unit)
	}
}

func TestAliases(t *testing.T) {
	lex := DefaultLexicon()
	al := lex.AliasesFor("USA")
	if len(al) == 0 {
		t.Fatal("no aliases for USA")
	}
	if lex.AliasesFor("Malaysia Airlines") != nil {
		t.Error("unexpected aliases")
	}
}

func TestEntityColumnOf(t *testing.T) {
	tab := SchemaTable{Name: "t", Columns: []SchemaColumn{
		{Name: "count", Type: "INTEGER"},
		{Name: "airline", Type: "TEXT"},
	}}
	if got := EntityColumnOf(&tab); got != "airline" {
		t.Errorf("got %q", got)
	}
	tab2 := SchemaTable{Name: "t", Columns: []SchemaColumn{
		{Name: "notes", Type: "TEXT"},
		{Name: "v", Type: "INTEGER"},
	}}
	if got := EntityColumnOf(&tab2); got != "notes" {
		t.Errorf("text fallback got %q", got)
	}
	tab3 := SchemaTable{Name: "t", Columns: []SchemaColumn{{Name: "v", Type: "INTEGER"}}}
	if got := EntityColumnOf(&tab3); got != "" {
		t.Errorf("no entity got %q", got)
	}
}

func TestKindString(t *testing.T) {
	if KindLookup.String() != "Lookup" || KindPercent.String() != "Percent" {
		t.Error("kind names")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind name")
	}
}
