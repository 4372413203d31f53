package nl

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode"
	"unsafe"
)

const airlineSchemaText = `CREATE TABLE "airlines" ("airline" TEXT, "incidents_85_99" INTEGER, "fatal_accidents_85_99" INTEGER, "fatal_accidents_00_14" INTEGER, "avail_seat_km_per_week" REAL);` + "\n"

// schemaMemoSeeds are prompts-in-miniature whose CREATE TABLE lines exercise
// every rule of createTableBlock.
var schemaMemoSeeds = []string{
	airlineSchemaText,
	"Given the claim \"x\".\nYou must use the schema of the following tables:\n" + airlineSchemaText + "Wrap the SQL.\n",
	"create table t (a TEXT);\nCrEaTe TaBlE \"u\" (\"b c\" INTEGER, d REAL);\n",
	"   \tCREATE TABLE indented (a TEXT);   \n\n\nCREATE TABLE after_blanks (b TEXT);",
	"CREATE TABLE first (a TEXT);\nsome claim text\nCREATE TABLE second (b TEXT);\n", // non-contiguous
	"CREATE TABLE first (a TEXT);\nCREATE TABLE nameless\nCREATE TABLE \"\" (x TEXT);\nCREATE TABLE last (b TEXT);",
	"create table ſ (a TEXT);\ncreate table t (a TEXT);",
	"create table t (a TEXT);\ncreate tabſe long_s (a TEXT);\n",  // ſ upper-cases to S: not a match
	"creaTe table t (a TEXT);\ncreate tıble dotless (a TEXT);\n", // ı upper-cases to I: not a match
	"CREATE TABLE t (a TEXT);\n\u00a0CREATE TABLE nbsp_indent (a TEXT);\n",
	"ſREATE TABLE x (a TEXT);", "CREATE TABLE", "CREATE TABLE (", "", "\n\n", "no schema here",
	"CREATE TABLE t (a TEXT, \"b,c\" REAL, 'q' TEXT);\r\nCREATE TABLE crlf (a TEXT);\r\n",
	"CREATE TABLE t (é TEXT);\nCREATE TABLE \"ünï\" (\"çol\" TEXT);",
	"CREATE TABLE t (a TEXT);\xff\nCREATE TABLE u (b TEXT);",
}

// checkSchemaMemo compares SchemaOfPrompt with ParseSchemaText twice over, so
// the second call answers from the memo.
func checkSchemaMemo(t *testing.T, text string) {
	t.Helper()
	want := ParseSchemaText(text)
	for pass := 0; pass < 2; pass++ {
		if got := SchemaOfPrompt(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("SchemaOfPrompt(%q) pass %d:\n got %+v\nwant %+v", text, pass, got, want)
		}
	}
}

func TestDifferentialSchemaMemoSeeds(t *testing.T) {
	for _, text := range schemaMemoSeeds {
		checkSchemaMemo(t, text)
	}
	// The rules the seeds were chosen for.
	for text, wantOK := range map[string]bool{
		schemaMemoSeeds[0]: true, schemaMemoSeeds[1]: true, schemaMemoSeeds[2]: true,
		schemaMemoSeeds[3]: true, schemaMemoSeeds[4]: false, schemaMemoSeeds[5]: true,
		schemaMemoSeeds[6]: true, "no schema here": false,
	} {
		if _, ok := createTableBlock(text); ok != wantOK {
			t.Errorf("createTableBlock(%q) ok = %v, want %v", text, ok, wantOK)
		}
	}
	if block, _ := createTableBlock(schemaMemoSeeds[1]); block+"\n" != airlineSchemaText {
		t.Errorf("block = %q, want the CREATE TABLE line alone", block)
	}
	if SchemaOfPrompt(schemaMemoSeeds[1]) != SchemaOfPrompt(airlineSchemaText) {
		t.Error("two prompts over one CREATE TABLE block do not share a Schema")
	}
}

// TestNoFoldedCreateTable pins the Unicode fact hasCreateTablePrefix leans
// on: a line can only upper-case into the CREATE TABLE prefix from ASCII
// letters, because no other rune upper-cases to one of its letters.
func TestNoFoldedCreateTable(t *testing.T) {
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		if u := unicode.ToUpper(r); u < 0x80 && strings.ContainsRune(createTable, u) {
			t.Errorf("%U upper-cases to %q, a letter of %q", r, u, createTable)
		}
	}
}

func FuzzSchemaMemo(f *testing.F) {
	for _, text := range schemaMemoSeeds {
		f.Add(text)
	}
	f.Fuzz(checkSchemaMemo)
}

func TestSchemaMemoCapFlush(t *testing.T) {
	for i := 0; i < 3*schemaMemoCap; i++ {
		checkSchemaMemo(t, fmt.Sprintf("CREATE TABLE t%d (a TEXT);\n", i))
	}
	schemaMemo.RLock()
	n := len(schemaMemo.m)
	schemaMemo.RUnlock()
	if n == 0 || n > schemaMemoCap {
		t.Errorf("memo holds %d schemas, want 1..%d", n, schemaMemoCap)
	}
}

// awkwardSchema has what corpus schemas lack: a column name repeated across
// tables and within one, in different case; upper-case and unknown headers;
// a unit column; a header that is only punctuation.
func awkwardSchema() *Schema {
	return &Schema{Tables: []SchemaTable{
		{Name: "airlines", Columns: []SchemaColumn{
			{Name: "Airline", Type: "TEXT"}, {Name: "FATAL_ACCIDENTS_00_14", Type: "INTEGER"}, {Name: "fatal_accidents_85_99", Type: "INTEGER"},
			{Name: "avail_seat_km_per_week", Type: "REAL"}, {Name: "airline", Type: "TEXT"}, {Name: "Fatal_Accidents_00_14", Type: "REAL"},
		}},
		{Name: "misc", Columns: []SchemaColumn{
			{Name: "AIRLINE", Type: "TEXT"}, {Name: "fatal accidents", Type: "INTEGER"}, {Name: "___", Type: "TEXT"}, {Name: "Ünits_sold", Type: "INTEGER"},
			{Name: "elevation_m", Type: "REAL"}, {Name: "", Type: "TEXT"},
		}},
	}}
}

var awkwardClaims = []string{
	"Aer Lingus recorded x fatal accidents.",
	"Aer Lingus recorded x fatal accidents between 2000 and 2014.",
	"Aer Lingus logged x available seat miles flown every week.",
	"A total of x fatal accidents were recorded across airlines with airline of Aer Lingus.",
	"On average, airlines recorded x ünits sold.",
	"The highest elevation in feet recorded was x.",
	"There are x airlines.",
	"x recorded the highest fatal accidents of all airlines.",
	"About x percent of the airlines recorded fatal accidents of 3.",
	"Aer Lingus recorded x .", "nothing to see", "",
}

func TestDifferentialParseMaskedAwkwardSchema(t *testing.T) {
	lex := DefaultLexicon()
	schema := awkwardSchema()
	for _, masked := range awkwardClaims {
		for _, ctx := range []string{"", "Between 2000 and 2014 the carrier flew every week, in feet and miles."} {
			want, wantErr := referenceParseMasked(masked, schema, lex, ctx)
			got, gotErr := ParseMasked(masked, schema, lex, ctx)
			if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%q ctx %q:\n got %+v, %v\nwant %+v, %v", masked, ctx, got, gotErr, want, wantErr)
			}
		}
	}
}

// churnSchema is a one-table schema of n headers no other call has used.
func churnSchema(tag string, from, n int) *Schema {
	t := SchemaTable{Name: "wide"}
	for i := 0; i < n; i++ {
		t.Columns = append(t.Columns, SchemaColumn{Name: fmt.Sprintf("%s_metric_%d", tag, from+i), Type: "INTEGER"})
	}
	return &Schema{Tables: []SchemaTable{t}}
}

func privateLexicon() *Lexicon {
	d := DefaultLexicon()
	return &Lexicon{Columns: d.Columns, Nouns: d.Nouns, Aliases: d.Aliases, Units: d.Units}
}

// TestColumnCacheChurn: headers are ingested data, so the cache must stay
// bounded however many distinct ones pass through — the sync.Map it replaces
// kept every text it had ever embedded.
func TestColumnCacheChurn(t *testing.T) {
	lex := privateLexicon()
	const headers, perSchema = 5000, 50
	for from := 0; from < headers; from += perSchema {
		schema := churnSchema("churn", from, perSchema)
		masked := fmt.Sprintf("Acme recorded x churn metric %d.", from+7)
		got, err := ParseMasked(masked, schema, lex, "")
		want, wantErr := referenceParseMasked(masked, schema, lex, "")
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("from %d: got %+v, %v; want %+v, %v", from, got, err, want, wantErr)
		}
		if n := len(lex.compiled.snapshot()); n > columnCacheCap {
			t.Fatalf("after %d headers the cache holds %d columns, cap %d", from+perSchema, n, columnCacheCap)
		}
	}
	if n := len(lex.compiled.snapshot()); n == 0 {
		t.Error("cache is empty after the churn")
	}
}

// TestCompiledCachesStress runs both caches from 32 goroutines, half of them
// on a small hot set and half pushing fresh keys through, so lookups race
// with inserts and with cap flushes; every answer is checked against the
// reference. Meaningful under -race.
func TestCompiledCachesStress(t *testing.T) {
	lex := privateLexicon()
	hot := awkwardSchema()
	const workers = 32
	rounds := 3 * columnCacheCap / (workers / 2) / 20 // the churning half overflows the column cap ~3 times
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				schema, masked := hot, awkwardClaims[(w+i)%len(awkwardClaims)]
				text := airlineSchemaText
				if w%2 == 1 {
					tag := fmt.Sprintf("w%d", w)
					schema = churnSchema(tag, i*20, 20)
					masked = fmt.Sprintf("Acme recorded x %s metric %d.", tag, i*20+3)
					text = fmt.Sprintf("CREATE TABLE %s_%d (a TEXT);\n", tag, i)
				}
				got, err := ParseMasked(masked, schema, lex, "in feet")
				want, wantErr := referenceParseMasked(masked, schema, lex, "in feet")
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Errorf("worker %d round %d: got %+v, %v; want %+v, %v", w, i, got, err, want, wantErr)
					return
				}
				if s := SchemaOfPrompt("preamble\n" + text + "tail"); !reflect.DeepEqual(s, ParseSchemaText(text)) {
					t.Errorf("worker %d round %d: memoized schema of %q differs", w, i, text)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(lex.compiled.snapshot()); n > columnCacheCap {
		t.Errorf("cache holds %d columns, cap %d", n, columnCacheCap)
	}
}

// TestParseMaskedAllocCeiling pins the allocation count of a warm parse. The
// uncompiled resolution spent 27 allocations without context and 71 with on
// the one-table schema, 52 and 96 on eight tables; compiled, 8 and 22
// whatever the schema's width. With candidates gathered on the stack and
// each text normalised once per parse, they are the ceilings below; the
// context's are embed.Normalize's, a dozen per call.
func TestParseMaskedAllocCeiling(t *testing.T) {
	lex := DefaultLexicon()
	one := ParseSchemaText(airlineSchemaText)
	var wide strings.Builder
	wide.WriteString(airlineSchemaText)
	for i := 0; i < 7; i++ {
		fmt.Fprintf(&wide, "CREATE TABLE \"t%d\" (\"name\" TEXT, \"wins\" INTEGER, \"podiums\" INTEGER, \"points\" INTEGER, \"played\" INTEGER, \"median_rent_usd\" REAL, \"area_km2\" REAL, \"col_%d\" TEXT);\n", i, i)
	}
	eight := ParseSchemaText(wide.String())
	const masked = "Aer Lingus recorded x fatal accidents."
	const ctx = "Between 2000 and 2014 Aer Lingus recorded 0 fatal accidents. It flew 320 million available seat kilometres every week."
	for _, tc := range []struct {
		name    string
		schema  *Schema
		ctx     string
		ceiling float64
	}{
		{"one table", one, "", 3}, {"one table, context", one, ctx, 17},
		{"eight tables", eight, "", 3}, {"eight tables, context", eight, ctx, 17},
	} {
		if _, err := ParseMasked(masked, tc.schema, lex, tc.ctx); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() { _, _ = ParseMasked(masked, tc.schema, lex, tc.ctx) })
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocations per parse, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// awaitRelease runs two collections and waits for released, which a finalizer
// on a memoised value's source text closes once the text is unreachable.
func awaitRelease(t *testing.T, released <-chan struct{}, what string) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s keeps its source text alive", what)
	}
}

// releaseOnCollect sets a finalizer on text's backing array that closes the
// returned channel once text is unreachable. text must be a fresh heap string
// longer than 16 bytes, so that the array is an allocation of its own.
func releaseOnCollect(text string) <-chan struct{} {
	released := make(chan struct{})
	runtime.SetFinalizer(unsafe.StringData(text), func(*byte) { close(released) })
	return released
}

// TestSchemaMemoReleasesPrompt: the memoised Schema of a CREATE TABLE block
// must not keep the first prompt that carried the block alive; its names
// used to be substrings of that prompt.
func TestSchemaMemoReleasesPrompt(t *testing.T) {
	var released <-chan struct{}
	func() {
		prompt := fmt.Sprintf("Given the claim \"x\".\nCREATE TABLE \"released_%d\" (\"alpha\" TEXT, \"beta\" INTEGER);\n%s", time.Now().UnixNano(), strings.Repeat("context ", 64))
		released = releaseOnCollect(prompt)
		if s := SchemaOfPrompt(prompt); len(s.Tables) != 1 || len(s.Tables[0].Columns) != 2 {
			t.Fatalf("schema = %+v", s)
		}
	}()
	awaitRelease(t, released, "the schema memo")
}

// TestColumnCacheReleasesSchemaText: a compiled column's key must not keep
// the text its lower-case name was parsed from alive.
func TestColumnCacheReleasesSchemaText(t *testing.T) {
	lex := privateLexicon()
	var released <-chan struct{}
	func() {
		text := fmt.Sprintf("CREATE TABLE \"gauges\" (\"name\" TEXT, \"released_metric\" INTEGER);\n%s", strings.Repeat("padding ", 64))
		released = releaseOnCollect(text)
		if _, err := ParseMasked("Acme recorded x released metric.", ParseSchemaText(text), lex, ""); err != nil {
			t.Fatal(err)
		}
	}()
	if len(lex.compiled.snapshot()) == 0 {
		t.Fatal("no column was compiled")
	}
	awaitRelease(t, released, "the compiled-column cache")
	runtime.KeepAlive(lex)
}
