package ingest

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/doclint"
	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/textutil"
)

const salesCSV = `region,product,units,revenue,discounted,day
north,widget,12,1034.50,true,2024-01-02
south,gadget,7,812.25,false,2024-01-03
east,widget,31,2200.00,false,2024-01-04
west,sprocket,5,NA,true,2024-01-05
north,gadget,19,1500.75,false,2024-01-06
`

func mustIngest(t *testing.T, data string, opts Options) *Result {
	t.Helper()
	res, err := Ingest(strings.NewReader(data), opts)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return res
}

func TestIngestCSVTypes(t *testing.T) {
	res := mustIngest(t, salesCSV, Options{Table: "sales"})
	if !res.HeaderDetected {
		t.Fatal("header not detected")
	}
	if res.Format != "csv" {
		t.Fatalf("format = %q, want csv", res.Format)
	}
	if res.RowsTotal != 5 || res.RowsKept != 5 {
		t.Fatalf("rows = %d/%d, want 5/5", res.RowsKept, res.RowsTotal)
	}
	want := map[string]string{
		"region": "string", "product": "string", "units": "int",
		"revenue": "float", "discounted": "bool", "day": "date",
	}
	if len(res.Columns) != len(want) {
		t.Fatalf("columns = %d, want %d", len(res.Columns), len(want))
	}
	for _, c := range res.Columns {
		if want[c.Name] != c.Type {
			t.Errorf("column %s type = %s, want %s", c.Name, c.Type, want[c.Name])
		}
	}
	// The NA cell must be NULL, and dates normalized to ISO.
	var revNulls int
	for _, c := range res.Columns {
		if c.Name == "revenue" {
			revNulls = c.Nulls
		}
	}
	if revNulls != 1 {
		t.Fatalf("revenue nulls = %d, want 1", revNulls)
	}
	dayIdx := res.Table.ColumnIndex("day")
	if got := res.Table.Cell(0, dayIdx).Text(); got != "2024-01-02" {
		t.Fatalf("day[0] = %q, want ISO date", got)
	}
}

func TestIngestCSVNoHeader(t *testing.T) {
	res := mustIngest(t, "1,alpha\n2,beta\n3,gamma\n", Options{Table: "t"})
	if res.HeaderDetected {
		t.Fatal("numeric first row misdetected as header")
	}
	if res.RowsTotal != 3 {
		t.Fatalf("rows = %d, want 3 (first row is data)", res.RowsTotal)
	}
	if res.Columns[0].Name != "col1" || res.Columns[1].Name != "col2" {
		t.Fatalf("synthetic names = %v", res.Columns)
	}
	if res.Columns[0].Type != "int" || res.Columns[1].Type != "string" {
		t.Fatalf("types = %s/%s", res.Columns[0].Type, res.Columns[1].Type)
	}
}

func TestIngestCSVRaggedAndBOM(t *testing.T) {
	data := "\xEF\xBB\xBFa,b\n1,2,3\n4\n"
	res := mustIngest(t, data, Options{Table: "ragged"})
	if !res.HeaderDetected {
		t.Fatal("BOM broke header detection")
	}
	if len(res.Columns) != 2 {
		t.Fatalf("columns = %d, want 2 (extra cell dropped under detected header)", len(res.Columns))
	}
	// Short row pads with NULL.
	if !res.Table.Cell(1, 1).IsNull() {
		t.Fatal("short row not NULL-padded")
	}
}

func TestIngestMixedNumericWidensToFloat(t *testing.T) {
	res := mustIngest(t, "x\n1\n2.5\n3\n", Options{Table: "m"})
	if res.Columns[0].Type != "float" {
		t.Fatalf("type = %s, want float", res.Columns[0].Type)
	}
	if res.Table.Columns[0].Type != sqldb.KindFloat {
		t.Fatalf("sql kind = %v, want float", res.Table.Columns[0].Type)
	}
}

func TestIngestNDJSON(t *testing.T) {
	data := `{"name":"ada","score":10}
{"score":7.5,"name":"grace","extra":"late"}

{"name":"edsger","score":null}
`
	res := mustIngest(t, data, Options{Table: "people"})
	if res.Format != "ndjson" {
		t.Fatalf("format = %q", res.Format)
	}
	if res.RowsTotal != 3 {
		t.Fatalf("rows = %d, want 3 (blank line skipped)", res.RowsTotal)
	}
	// Column order follows first sight: name, score, extra.
	names := []string{res.Columns[0].Name, res.Columns[1].Name, res.Columns[2].Name}
	if names[0] != "name" || names[1] != "score" || names[2] != "extra" {
		t.Fatalf("column order = %v", names)
	}
	if res.Columns[1].Type != "float" {
		t.Fatalf("score type = %s, want float (int ∪ float)", res.Columns[1].Type)
	}
	// Row 1 lacks "extra": padded NULL.
	if !res.Table.Cell(0, 2).IsNull() {
		t.Fatal("missing key not NULL")
	}
}

func TestIngestJSONArray(t *testing.T) {
	data := `[ {"city":"oslo","pop":700000}, {"city":"bergen","pop":290000} ]`
	res := mustIngest(t, data, Options{Table: "cities"})
	if res.Format != "json" {
		t.Fatalf("format = %q", res.Format)
	}
	if res.RowsTotal != 2 {
		t.Fatalf("rows = %d", res.RowsTotal)
	}
	if res.Columns[1].Type != "int" {
		t.Fatalf("pop type = %s", res.Columns[1].Type)
	}
}

func TestIngestSamplingDeterministic(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,v\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i*3)
	}
	opts := Options{Table: "big", SampleRows: 50, Seed: 7}
	r1 := mustIngest(t, b.String(), opts)
	r2 := mustIngest(t, b.String(), opts)
	if !r1.Sampled || r1.RowsKept != 50 || r1.RowsTotal != 1000 {
		t.Fatalf("sampled=%v kept=%d total=%d", r1.Sampled, r1.RowsKept, r1.RowsTotal)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("same (content, table, seed) fingerprints differ: %s vs %s", r1.Fingerprint, r2.Fingerprint)
	}
	// A different seed selects a different reservoir.
	r3 := mustIngest(t, b.String(), Options{Table: "big", SampleRows: 50, Seed: 8})
	if r3.Fingerprint == r1.Fingerprint {
		t.Fatal("different seeds produced identical samples (vanishingly unlikely)")
	}
	if r1.SampleSeed == 0 || r1.SampleSeed == opts.Seed {
		t.Fatalf("SampleSeed = %d, want derived value", r1.SampleSeed)
	}
	// The same records as NDJSON keep the same reservoir.
	var nb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&nb, `{"id":%d,"v":%d}`+"\n", i, i*3)
	}
	nd := mustIngest(t, nb.String(), opts)
	if nd.Format != "ndjson" || nd.RowsKept != r1.RowsKept || nd.RowsTotal != r1.RowsTotal {
		t.Fatalf("ndjson format=%s kept=%d total=%d, csv kept=%d total=%d", nd.Format, nd.RowsKept, nd.RowsTotal, r1.RowsKept, r1.RowsTotal)
	}
	if !reflect.DeepEqual(tableRows(nd.Table), tableRows(r1.Table)) {
		t.Fatal("ndjson and csv renderings of the same records sampled different rows")
	}
}

func TestIngestByteBudgetTruncates(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,v\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i)
	}
	full := mustIngest(t, b.String(), Options{Table: "t"})
	cut := mustIngest(t, b.String(), Options{Table: "t", MaxBytes: 64})
	if !cut.Truncated {
		t.Fatal("Truncated not set")
	}
	if cut.RowsTotal >= full.RowsTotal || cut.RowsTotal == 0 {
		t.Fatalf("truncated rows = %d (full %d)", cut.RowsTotal, full.RowsTotal)
	}
	if cut.BytesRead > 64 {
		t.Fatalf("BytesRead = %d > budget", cut.BytesRead)
	}
}

func TestIngestErrors(t *testing.T) {
	if _, err := Ingest(strings.NewReader("a,b\n1,2\n"), Options{}); err == nil {
		t.Fatal("missing table name accepted")
	}
	if _, err := Ingest(strings.NewReader(""), Options{Table: "t"}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Ingest(strings.NewReader("[1,2,3]"), Options{Table: "t", Format: "json"}); err == nil {
		t.Fatal("array of scalars accepted")
	}
	if _, err := Ingest(strings.NewReader("x"), Options{Table: "t", Format: "tsv"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestBuildSurfaceClaims(t *testing.T) {
	res := mustIngest(t, salesCSV, Options{Table: "sales"})
	db := sqldb.NewDatabase("ingested")
	db.AddTable(res.Table)
	s, err := BuildSurface(db, "sales")
	if err != nil {
		t.Fatalf("BuildSurface: %v", err)
	}
	if s.Entity == "" {
		t.Fatal("no entity column found (region is TEXT)")
	}
	if len(s.Claims) == 0 {
		t.Fatal("no claims generated")
	}
	kinds := map[string]bool{}
	for _, c := range s.Claims {
		// Every claim is true by construction: the gold query re-evaluates
		// to the rendered value.
		v, err := sqldb.QueryScalar(db, c.Query)
		if err != nil {
			t.Fatalf("claim %s: gold query: %v", c.ID, err)
		}
		if v.IsNull() {
			t.Fatalf("claim %s: gold query is NULL", c.ID)
		}
		if !strings.Contains(c.Sentence, c.Value) {
			t.Fatalf("claim %s: sentence %q lacks value %q", c.ID, c.Sentence, c.Value)
		}
		parts := strings.SplitN(c.ID, "-", 3)
		kinds[parts[1]] = true
	}
	for _, k := range []string{"count_all", "sum", "min", "max"} {
		if !kinds[k] {
			t.Errorf("no %s claim generated (have %v)", k, kinds)
		}
	}
	// Filter templates cover every column with a ? placeholder.
	filters := 0
	for _, tm := range s.Templates {
		if tm.Kind == "filter" {
			filters++
			if !strings.Contains(tm.SQL, "?") {
				t.Fatalf("filter template lacks placeholder: %s", tm.SQL)
			}
		}
	}
	if filters != len(res.Columns) {
		t.Fatalf("filter templates = %d, want %d", filters, len(res.Columns))
	}
}

// A first row whose numeric cell is also a substring of its entity key
// ("acct-00000" beside units = 0) must not become the lookup entity: the value
// would occur in the sentence before its own token, and a consumer that
// substitutes the first occurrence (the benchmark's falsifier) would rewrite
// the entity instead. Benchmark seed 376 hit this.
func TestBuildSurfaceLookupAvoidsAmbiguousRow(t *testing.T) {
	const csv = `account,region,units,revenue
acct-00000,north,0,10.50
acct-00001,south,12,20.25
acct-00002,east,7,31.00
`
	res := mustIngest(t, csv, Options{Table: "sales"})
	db := sqldb.NewDatabase("ingested")
	db.AddTable(res.Table)
	s, err := BuildSurface(db, "sales")
	if err != nil {
		t.Fatalf("BuildSurface: %v", err)
	}
	if s.Entity != "account" {
		t.Fatalf("entity = %q, want account", s.Entity)
	}
	lookups := 0
	for _, c := range s.Claims {
		if strings.HasPrefix(c.ID, "sales-lookup-") {
			lookups++
			if !strings.HasPrefix(c.Sentence, "acct-00001 ") {
				t.Errorf("claim %s describes %q, want the first unambiguous row acct-00001", c.ID, c.Sentence)
			}
		}
		// The first textual occurrence of the value is its own token.
		span, ok := textutil.FindValueSpan(c.Sentence, c.Value)
		if !ok {
			t.Fatalf("claim %s: value %q not locatable in %q", c.ID, c.Value, c.Sentence)
		}
		toks := textutil.Tokenize(c.Sentence)
		offset := len(strings.Join(toks[:span.Start], " "))
		if span.Start > 0 {
			offset++ // the separating space
		}
		offset += strings.Index(toks[span.Start], c.Value)
		if got := strings.Index(c.Sentence, c.Value); got != offset {
			t.Errorf("claim %s: value %q first occurs at byte %d of %q, its token starts at %d",
				c.ID, c.Value, got, c.Sentence, offset)
		}
		// The first-substring falsification stays locatable, at the same span.
		wrong := c.Value + "7"
		cl, err := claim.New(c.ID, strings.Replace(c.Sentence, c.Value, wrong, 1), wrong, c.Context)
		if err != nil {
			t.Errorf("claim %s: falsified claim: %v", c.ID, err)
		} else if cl.Span != span {
			t.Errorf("claim %s: falsified span = %+v, want %+v", c.ID, cl.Span, span)
		}
	}
	if lookups != 2 {
		t.Fatalf("lookup claims = %d, want units and revenue", lookups)
	}

	// When every row is ambiguous the first non-null entity stands.
	res = mustIngest(t, "account,units\nacct-10,1\nacct-20,2\n", Options{Table: "tiny"})
	db.AddTable(res.Table)
	s, err = BuildSurface(db, "tiny")
	if err != nil {
		t.Fatalf("BuildSurface(tiny): %v", err)
	}
	for _, c := range s.Claims {
		if c.ID == "tiny-lookup-units" && !strings.HasPrefix(c.Sentence, "acct-10 ") {
			t.Errorf("fallback lookup describes %q, want the first row", c.Sentence)
		}
	}
}

func TestDatasetCodecRoundTrip(t *testing.T) {
	res := mustIngest(t, salesCSV, Options{Table: "Sales", Seed: 3})
	got, err := decodeDataset(encodeDataset(res))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Fingerprint != res.Fingerprint {
		t.Fatalf("fingerprint drifted: %s vs %s", got.Fingerprint, res.Fingerprint)
	}
	if fp := tableFingerprint(got.Table); fp != res.Fingerprint {
		t.Fatalf("decoded table re-fingerprints to %s, want %s", fp, res.Fingerprint)
	}
	if got.Name != "Sales" || got.SampleSeed != res.SampleSeed || got.RowsTotal != res.RowsTotal {
		t.Fatalf("metadata drifted: %+v", got)
	}
	if len(got.Columns) != len(res.Columns) || got.Columns[2].Type != "int" {
		t.Fatalf("columns drifted: %+v", got.Columns)
	}
	// Corrupt records error instead of panicking.
	enc := encodeDataset(res)
	for _, cut := range []int{0, 1, 5, len(enc) / 2, len(enc) - 1} {
		if _, err := decodeDataset(enc[:cut]); err == nil {
			t.Fatalf("truncated record (%d bytes) decoded without error", cut)
		}
	}
	// So do records with bytes after the last row, like every record family.
	for _, tail := range [][]byte{{0}, {byte(sqldb.KindInt), 1, 0, 0, 0, 0, 0, 0, 0}} {
		if _, err := decodeDataset(append(enc[:len(enc):len(enc)], tail...)); err == nil {
			t.Fatalf("record with %d trailing bytes decoded without error", len(tail))
		}
	}
}

// countedRecord encodes a dataset record whose table declares cols INTEGER
// columns and rows rows, and holds no row bytes at all.
func countedRecord(cols int, rows uint32) []byte {
	e := &store.Enc{}
	e.U8(datasetCodecVer)
	e.Str("t")
	e.Str("csv")
	e.U64(0)
	e.U64(0)
	e.U8(0)
	e.U64(0)
	e.Str("")
	e.U32(0)
	e.Str("t")
	e.U32(uint32(cols))
	for i := 0; i < cols; i++ {
		e.Str("c")
		e.U8(uint8(sqldb.KindInt))
	}
	e.U32(rows)
	return e.B
}

// TestDatasetCodecRejectsImpossibleCounts: a count is bounded by the bytes
// left in the record. A table of no columns used to take one row per loop
// turn from nothing, so a 59-byte record decoded into 50 million empty rows.
func TestDatasetCodecRejectsImpossibleCounts(t *testing.T) {
	if r, err := decodeDataset(countedRecord(0, 0)); err != nil || r.Table.NumRows() != 0 {
		t.Fatalf("an empty table without columns: %v", err)
	}
	for _, rec := range [][]byte{
		countedRecord(0, 50_000_000),
		countedRecord(0, 1),
		countedRecord(1, 1<<32-1),
		countedRecord(2, 1),
	} {
		if r, err := decodeDataset(rec); err == nil {
			t.Errorf("a %d-byte record decoded into %d rows", len(rec), r.Table.NumRows())
		}
	}
	// A column count no record could hold, then a name count.
	rec := countedRecord(0, 0)
	binary.LittleEndian.PutUint32(rec[len(rec)-8:], 1<<32-1)
	if _, err := decodeDataset(rec); err == nil {
		t.Error("a record declaring 2^32-1 table columns decoded")
	}
}

// TestIngestDocsJourneyFingerprint ingests the CSV docs/DATA.md walks
// through, read from the page itself, and holds the result to what the page
// shows `cedar ingest` printing: its column table and its fingerprint.
func TestIngestDocsJourneyFingerprint(t *testing.T) {
	const fingerprint = "0e25b87bfb62d439"
	doc, err := doclint.Doc("docs/DATA.md")
	if err != nil {
		t.Fatal(err)
	}
	block := func(open, close string) string {
		i := strings.Index(doc, open)
		if i < 0 {
			t.Fatalf("docs/DATA.md has no %q", open)
		}
		rest := doc[i+len(open):]
		return rest[:strings.Index(rest, close)]
	}
	res := mustIngest(t, block("```csv\n", "```"), Options{Table: "sales", Seed: 1})
	if res.Fingerprint != fingerprint {
		t.Errorf("fingerprint %s, want %s", res.Fingerprint, fingerprint)
	}
	if !strings.Contains(doc, "fingerprint: "+fingerprint) {
		t.Errorf("docs/DATA.md no longer shows fingerprint %s", fingerprint)
	}
	var got strings.Builder
	for _, c := range res.Columns {
		line := fmt.Sprintf("    %-24s %-7s", c.Name, c.Type)
		if c.Nulls > 0 {
			line += fmt.Sprintf(" (%d nulls)", c.Nulls)
		}
		got.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(block("  columns:\n", "  surface:"), "\n") {
		if line != "" {
			want.WriteString(strings.TrimRight(line, " \n") + "\n")
		}
	}
	if got.String() != want.String() {
		t.Errorf("columns:\n%s\ndocs/DATA.md shows:\n%s", got.String(), want.String())
	}
}

func TestRegistryPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	db := sqldb.NewDatabase("d")
	reg := NewRegistry(db, st, Options{})
	res := mustIngest(t, salesCSV, Options{Table: "sales"})
	if _, err := reg.Add(res); err != nil {
		t.Fatalf("Add: %v", err)
	}
	res2 := mustIngest(t, `[{"name":"x","n":1},{"name":"y","n":2}]`, Options{Table: "pairs"})
	if _, err := reg.Add(res2); err != nil {
		t.Fatalf("Add pairs: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Warm restart: a fresh registry over a fresh DB restores both datasets,
	// in the order they are asked for, with identical fingerprints.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	db2 := sqldb.NewDatabase("d")
	reg2 := NewRegistry(db2, st2, Options{})
	for _, name := range []string{"sales", "pairs"} {
		if _, err := reg2.LoadDataset(name); err != nil {
			t.Fatalf("LoadDataset(%s): %v", name, err)
		}
	}
	list := reg2.List()
	if len(list) != 2 || list[0].Info.Name != "sales" || list[1].Info.Name != "pairs" {
		t.Fatalf("restore order wrong: %v", list)
	}
	if list[0].Info.Fingerprint != res.Fingerprint || list[1].Info.Fingerprint != res2.Fingerprint {
		t.Fatal("restored fingerprint differs")
	}
	if db2.Table("sales") == nil || db2.Table("pairs") == nil {
		t.Fatal("restored tables missing from catalog")
	}
}

// TestDatasetDeleteSurvivesRestart: a deleted dataset stays deleted after
// the store is reopened, its neighbours still restore, and the name can be
// registered again. Deletion used to rewrite a manifest that no restore
// path read, so LoadDataset brought the deleted table back.
func TestDatasetDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	reopen := func() (*store.Store, *Registry) {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		return st, NewRegistry(sqldb.NewDatabase("d"), st, Options{})
	}
	st, reg := reopen()
	res := mustIngest(t, salesCSV, Options{Table: "sales"})
	pairs := mustIngest(t, `[{"name":"x","n":1},{"name":"y","n":2}]`, Options{Table: "pairs"})
	for _, r := range []*Result{res, pairs} {
		if _, err := reg.Add(r); err != nil {
			t.Fatalf("Add %s: %v", r.Name, err)
		}
	}
	if ok, err := reg.Delete("Sales"); !ok || err != nil {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	st.Close()

	st, reg = reopen()
	if ds, err := reg.LoadDataset("sales"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("LoadDataset(sales) after delete and restart = %v, %v; want not found", ds, err)
	}
	if reg.Get("sales") != nil || reg.db.Table("sales") != nil {
		t.Fatal("a failed restore left the deleted dataset registered")
	}
	if ds, err := reg.LoadDataset("pairs"); err != nil || ds.Info.Fingerprint != pairs.Fingerprint {
		t.Fatalf("LoadDataset(pairs) = %v, %v; the undeleted dataset must restore", ds, err)
	}
	if _, err := reg.Add(res); err != nil {
		t.Fatalf("re-Add after delete: %v", err)
	}
	st.Close()

	_, reg = reopen()
	ds, err := reg.LoadDataset("sales")
	if err != nil || ds.Info.Fingerprint != res.Fingerprint {
		t.Fatalf("LoadDataset(sales) after re-Add = %v, %v", ds, err)
	}
}

func TestRegistryProtectsBaseTables(t *testing.T) {
	db := sqldb.NewDatabase("d")
	base := sqldb.NewTable("base", "id")
	base.MustAppendRow(sqldb.Int(1))
	db.AddTable(base)
	reg := NewRegistry(db, nil, Options{})
	res := mustIngest(t, "id\n2\n", Options{Table: "base"})
	if _, err := reg.Add(res); err == nil {
		t.Fatal("ingest over a base table accepted")
	}
	if ok, _ := reg.Delete("base"); ok {
		t.Fatal("base table deletable through registry")
	}
	// Re-adding an ingested dataset is allowed (replacement).
	res2 := mustIngest(t, salesCSV, Options{Table: "sales"})
	if _, err := reg.Add(res2); err != nil {
		t.Fatalf("Add: %v", err)
	}
	res3 := mustIngest(t, salesCSV, Options{Table: "sales"})
	if _, err := reg.Add(res3); err != nil {
		t.Fatalf("re-Add: %v", err)
	}
	if len(reg.List()) != 1 {
		t.Fatal("replacement duplicated the dataset")
	}
}

// TestRegistryFailedReAddKeepsPrevious: a re-ingestion the surface rejects
// leaves the previous dataset's table in the catalog, so the claims the
// registry still serves for it keep answering.
func TestRegistryFailedReAddKeepsPrevious(t *testing.T) {
	db := sqldb.NewDatabase("d")
	reg := NewRegistry(db, nil, Options{})
	ds, err := reg.Add(mustIngest(t, "city,population\nparis,100\nrome,200\n", Options{Table: "d"}))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := reg.Add(mustIngest(t, "flag\ntrue\nfalse\n", Options{Table: "d"})); err == nil || !strings.Contains(err.Error(), "yields no verifiable claims") {
		t.Fatalf("re-Add of a claimless table: err = %v, want a rejection", err)
	}
	if got := db.Table("d").ColumnNames(); !reflect.DeepEqual(got, []string{"city", "population"}) {
		t.Fatalf("catalog table d has columns %v after the rejected re-add, want [city population]", got)
	}
	if reg.Get("d") != ds || len(ds.Surface.Claims) == 0 {
		t.Fatal("the registry no longer serves the previous dataset")
	}
	for _, c := range ds.Surface.Claims {
		if _, err := sqldb.QueryScalar(db, c.Query); err != nil {
			t.Errorf("claim %s: %s: %v", c.ID, c.Query, err)
		}
	}
}

func TestCleanColumnName(t *testing.T) {
	cases := map[string]string{
		"Revenue (USD)": "revenue_usd",
		"  first name ": "first_name",
		"__x__":         "x",
		"%%%":           "col3",
		"A1":            "a1",
	}
	for in, want := range cases {
		if got := cleanColumnName(in, 2); got != want {
			t.Errorf("cleanColumnName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestClassifyEdgeCases(t *testing.T) {
	if v, ct := classify("  NaN "); !v.IsNull() || ct != ColUnknown {
		t.Fatal("NaN not a null token")
	}
	if _, ct := classify("+Inf"); ct != ColString {
		t.Fatal("Inf leaked through as float")
	}
	if v, ct := classify("TRUE"); ct != ColBool || !v.AsBool() {
		t.Fatal("TRUE not boolean")
	}
	if v, ct := classify("Jan 2, 2024"); ct != ColDate || v.Text() != "2024-01-02" {
		t.Fatalf("date spelling not normalized: %v", v.Text())
	}
}

// TestIngestNumberSpellingsMatchLoadCSV feeds one cell at a time through
// sqldb.LoadCSV and Ingest. Both read only decimal spellings as numbers
// (textutil.DecimalSpelling), so every cell loads under the same kind at
// both doors, except ingest's null tokens, which it reads as NULL.
func TestIngestNumberSpellingsMatchLoadCSV(t *testing.T) {
	for _, tc := range []struct {
		cell string
		want sqldb.Kind // LoadCSV's kind, and Ingest's unless a null token
	}{
		{"NaN", sqldb.KindText}, {"nan", sqldb.KindText}, {"-nan", sqldb.KindText},
		{"Inf", sqldb.KindText}, {"-inf", sqldb.KindText}, {"+Infinity", sqldb.KindText},
		{"0x1p4", sqldb.KindText}, {"0X1P-2", sqldb.KindText}, {"0x10", sqldb.KindText},
		{"1_000", sqldb.KindText}, {"1_0.5", sqldb.KindText},
		{"1e3", sqldb.KindFloat}, {"6.02E+23", sqldb.KindFloat}, {"-.5e-3", sqldb.KindFloat}, {"1e400", sqldb.KindText},
		{"+5", sqldb.KindInt}, {"-5", sqldb.KindInt}, {"-0", sqldb.KindInt}, {"+.5", sqldb.KindFloat},
		{"+", sqldb.KindText}, {"1-2", sqldb.KindText}, {"e", sqldb.KindText},
		{" 42 ", sqldb.KindInt}, {"  -2.5\t", sqldb.KindFloat}, {"4 2", sqldb.KindText},
		{"", sqldb.KindNull}, {"null", sqldb.KindText}, {"NA", sqldb.KindText}, {"n/a", sqldb.KindText},
	} {
		csv := "k\n\"" + tc.cell + "\"\n"
		loaded, err := sqldb.LoadCSV("t", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.Cell(0, 0).Kind(); got != tc.want {
			t.Errorf("LoadCSV %q: %v, want %v", tc.cell, got, tc.want)
		}
		res := mustIngest(t, csv, Options{Table: "t", Format: "csv"})
		want := tc.want
		if nullTokens[strings.ToLower(strings.TrimSpace(tc.cell))] {
			want = sqldb.KindNull
		}
		if got := res.Table.Cell(0, 0).Kind(); got != want || res.Table.NumRows() != 1 {
			t.Errorf("Ingest %q: %v in %d rows, want %v in one", tc.cell, got, res.Table.NumRows(), want)
		}
	}
}
