// Package ingest turns user-supplied CSV and JSON data into sqldb catalogs
// with an auto-generated verification surface. It is the dynamic-dataset
// onboarding layer (DESIGN.md §15): type inference over raw cells, an
// Evergreen-style row/byte budget with deterministic reservoir sampling so
// oversized inputs stay affordable, per-column query templates plus
// synthetic claims derived mechanically from the inferred schema, and a
// store-backed registry that persists ingested catalogs across restarts.
package ingest

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/sqldb"
)

// Default ingestion budgets. DefaultSampleRows bounds the rows a catalog
// keeps (reservoir-sampled beyond it); DefaultMaxBytes bounds the input
// bytes read before the parser stops at the last complete record.
const (
	DefaultSampleRows = 50000
	DefaultMaxBytes   = 32 << 20
)

// maxColumns bounds the inferred column count; wider inputs are rejected as
// malformed rather than ingested into an unusably wide catalog.
const maxColumns = 512

// Options configure one ingestion.
type Options struct {
	// Table is the catalog name the dataset registers under. Required.
	Table string
	// Format is "csv", "ndjson", "json" (array of objects), or "auto"/""
	// to sniff from the content (and filename, for File).
	Format string
	// SampleRows caps the rows kept; excess rows are reservoir-sampled
	// deterministically. <= 0 selects DefaultSampleRows.
	SampleRows int
	// MaxBytes caps the input bytes read; the parser stops at the last
	// complete record inside the budget. <= 0 selects DefaultMaxBytes.
	MaxBytes int64
	// Seed salts the sampling reservoir. The same (table, seed, content)
	// triple reproduces the same sample bit-identically on any machine.
	Seed int64
}

func (o Options) sampleRows() int {
	if o.SampleRows <= 0 {
		return DefaultSampleRows
	}
	return o.SampleRows
}

func (o Options) maxBytes() int64 {
	if o.MaxBytes <= 0 {
		return DefaultMaxBytes
	}
	return o.MaxBytes
}

// ColumnInfo describes one inferred column.
type ColumnInfo struct {
	// Name is the cleaned column name.
	Name string `json:"name"`
	// Type is the inferred ingest type: int, float, bool, date, or string.
	Type string `json:"type"`
	// Nulls counts NULL cells among the kept rows.
	Nulls int `json:"nulls"`
}

// Result is one completed ingestion: the built table plus everything the
// caller needs to report, persist, and reason about determinism.
type Result struct {
	// Table is the built catalog table (name = Options.Table).
	Table *sqldb.Table `json:"-"`
	// Name echoes Options.Table.
	Name string `json:"name"`
	// Format is the resolved input format.
	Format string `json:"format"`
	// Columns are the inferred columns in input order.
	Columns []ColumnInfo `json:"columns"`
	// RowsTotal counts the records scanned (within the byte budget);
	// RowsKept counts the rows stored, after sampling.
	RowsTotal int `json:"rows_total"`
	RowsKept  int `json:"rows_kept"`
	// BytesRead is the input bytes consumed.
	BytesRead int64 `json:"bytes_read"`
	// Sampled reports that RowsTotal exceeded the row budget and the kept
	// rows are a deterministic reservoir sample.
	Sampled bool `json:"sampled"`
	// Truncated reports that the byte budget cut the input off at the last
	// complete record.
	Truncated bool `json:"truncated"`
	// HeaderDetected reports whether a CSV first record was taken as the
	// header (always true for JSON inputs, whose keys name the columns).
	HeaderDetected bool `json:"header_detected"`
	// SampleSeed is the effective reservoir seed, recorded so the sampling
	// decision is reproducible (and traceable) across processes.
	SampleSeed int64 `json:"sample_seed"`
	// Fingerprint is a content hash of the built table (schema + rows);
	// equal fingerprints guarantee bit-identical catalogs, which is what
	// the re-ingest idempotency and cold/warm determinism gates compare.
	Fingerprint string `json:"fingerprint"`
}

// SampleDetail renders the sampling decision for a trace span's Detail
// field: dataset, rows seen/kept, bytes, and the reservoir seed.
func (r *Result) SampleDetail() string {
	return fmt.Sprintf("dataset=%s rows=%d kept=%d bytes=%d sampled=%v truncated=%v seed=%d",
		r.Name, r.RowsTotal, r.RowsKept, r.BytesRead, r.Sampled, r.Truncated, r.SampleSeed)
}

// File ingests a file, sniffing the format from the extension when Options.
// Format is empty/auto: .csv, .ndjson/.jsonl, .json.
func File(path string, opts Options) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if opts.Format == "" || opts.Format == "auto" {
		switch strings.ToLower(filepath.Ext(path)) {
		case ".csv":
			opts.Format = "csv"
		case ".ndjson", ".jsonl":
			opts.Format = "ndjson"
		case ".json":
			opts.Format = "json"
		}
	}
	if opts.Table == "" {
		base := filepath.Base(path)
		opts.Table = strings.TrimSuffix(base, filepath.Ext(base))
	}
	return Ingest(f, opts)
}

// Ingest reads one dataset from r under the options' budget and builds its
// catalog table. The reader is consumed at most MaxBytes+1 bytes.
func Ingest(r io.Reader, opts Options) (*Result, error) {
	if strings.TrimSpace(opts.Table) == "" {
		return nil, fmt.Errorf("ingest: table name is required")
	}

	budget := opts.maxBytes()
	raw, err := io.ReadAll(io.LimitReader(r, budget+1))
	if err != nil {
		return nil, fmt.Errorf("ingest %s: read: %w", opts.Table, err)
	}
	truncated := false
	if int64(len(raw)) > budget {
		truncated = true
		raw = raw[:budget]
	}
	raw = bytes.TrimPrefix(raw, []byte{0xEF, 0xBB, 0xBF}) // UTF-8 BOM

	format := opts.Format
	if format == "" || format == "auto" {
		format = sniffFormat(raw)
	}

	res := &Result{
		Name:      opts.Table,
		Format:    format,
		BytesRead: int64(len(raw)),
		Truncated: truncated,
	}

	rows := newRowAccumulator(opts)
	switch format {
	case "csv":
		err = parseCSV(raw, truncated, res, rows)
	case "ndjson":
		err = parseNDJSON(raw, truncated, res, rows)
	case "json":
		err = parseJSONArray(raw, truncated, res, rows)
	default:
		return nil, fmt.Errorf("ingest %s: unsupported format %q", opts.Table, format)
	}
	if err != nil {
		return nil, err
	}
	if len(rows.cols) == 0 {
		return nil, fmt.Errorf("ingest %s: no columns found", opts.Table)
	}
	if len(rows.cols) > maxColumns {
		return nil, fmt.Errorf("ingest %s: %d columns exceeds the %d-column limit", opts.Table, len(rows.cols), maxColumns)
	}

	res.SampleSeed = sampleSeed(opts)
	kept := rows.kept
	if rows.seen > opts.sampleRows() {
		res.Sampled = true
	}

	t := sqldb.NewTable(opts.Table)
	for i, c := range rows.cols {
		t.Columns = append(t.Columns, sqldb.Column{Name: c.name, Type: rows.colTypes[i].sqlKind()})
	}
	nulls := make([]int, len(rows.cols))
	t.Rows = make([][]sqldb.Value, 0, len(kept))
	for _, row := range kept {
		// Rows were accumulated before the final column set settled (JSON
		// objects can introduce keys late); pad to full width.
		for len(row) < len(rows.cols) {
			row = append(row, sqldb.Null())
		}
		for i, v := range row {
			// Values classified before the column widened (an int cell in a
			// column that later proved float or string) coerce to the final
			// column kind so stored kinds always match the declared schema.
			row[i] = coerce(v, t.Columns[i].Type)
			if v.IsNull() {
				nulls[i]++
			}
		}
		t.Rows = append(t.Rows, row)
	}

	res.Table = t
	res.RowsTotal = rows.seen
	res.RowsKept = len(t.Rows)
	for i, c := range rows.cols {
		res.Columns = append(res.Columns, ColumnInfo{Name: c.name, Type: rows.colTypes[i].String(), Nulls: nulls[i]})
	}
	res.Fingerprint = tableFingerprint(t)
	return res, nil
}

// coerce converts a value to the declared column kind. Only widening
// conversions occur in practice: int → float, and anything → text.
func coerce(v sqldb.Value, kind sqldb.Kind) sqldb.Value {
	if v.IsNull() || v.Kind() == kind {
		return v
	}
	switch kind {
	case sqldb.KindFloat:
		if f, ok := v.AsFloat(); ok {
			return sqldb.Float(f)
		}
	case sqldb.KindText:
		return sqldb.Text(v.String())
	}
	return v
}

// sniffFormat guesses the format from content: a leading '[' is a JSON
// array, '{' is NDJSON, anything else CSV.
func sniffFormat(raw []byte) string {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '[':
			return "json"
		case '{':
			return "ndjson"
		default:
			return "csv"
		}
	}
	return "csv"
}

// sampleSeed derives the effective reservoir seed from the table name and
// the caller's salt — stable across processes, independent of wall clock.
func sampleSeed(opts Options) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("ingest-sample|%s|%d", strings.ToLower(opts.Table), opts.Seed)))
	return int64(binary.LittleEndian.Uint64(h[:8]) &^ (1 << 63))
}

// column is one inferred column under construction.
type column struct {
	name string
}

// slabValues bounds one row slab, so that a slab sized for records that
// never arrive (blank lines, short rows under a wide header) strands at most
// this many Values.
const slabValues = 1 << 14

// rowAccumulator collects parsed rows through the deterministic reservoir:
// the first cap rows are kept verbatim; each later row replaces a random
// kept row with probability cap/seen, which yields a uniform sample of the
// scanned prefix under any input size.
type rowAccumulator struct {
	cols     []column
	colTypes []ColType
	byName   map[string]int
	kept     [][]sqldb.Value
	seen     int
	cap      int
	rng      *rand.Rand
	// slab is the unused tail of the Values the next kept rows are carved
	// from; lines, the input's line count, bounds the records that can still
	// come and so the size of the next slab. Both serve slot only.
	slab  []sqldb.Value
	lines int
}

func newRowAccumulator(opts Options) *rowAccumulator {
	return &rowAccumulator{
		byName: make(map[string]int),
		cap:    opts.sampleRows(),
		rng:    rand.New(rand.NewSource(sampleSeed(opts))),
	}
}

// columnIndex returns the index of the named column, adding it on first
// sight.
func (a *rowAccumulator) columnIndex(name string) int {
	key := strings.ToLower(name)
	if i, ok := a.byName[key]; ok {
		return i
	}
	i := len(a.cols)
	a.cols = append(a.cols, column{name: name})
	a.colTypes = append(a.colTypes, ColUnknown)
	a.byName[key] = i
	return i
}

// admit advances the reservoir past one more scanned row and returns the
// index in kept the row takes, len(a.kept) meaning appended, or -1 when the
// sample discards it.
func (a *rowAccumulator) admit() int {
	a.seen++
	if len(a.kept) < a.cap {
		return len(a.kept)
	}
	if j := a.rng.Intn(a.seen); j < a.cap {
		return j
	}
	return -1
}

// add pushes one parsed row (already aligned to a.cols, possibly shorter)
// through the reservoir.
func (a *rowAccumulator) add(row []sqldb.Value) {
	switch j := a.admit(); {
	case j == len(a.kept):
		a.kept = append(a.kept, row)
	case j >= 0:
		a.kept[j] = row
	}
}

// slot is add for a row not yet built: it returns the storage the row's n
// Values go into, every one of which the caller must write, or nil when the
// sample discards the row. The first cap rows are carved from slabs; a later
// row overwrites the kept row it replaces, so a slab never pins a row the
// sample let go, nor the cell text such a row referenced.
func (a *rowAccumulator) slot(n int) []sqldb.Value {
	j := a.admit()
	if j < 0 {
		return nil
	}
	if j < len(a.kept) {
		if old := a.kept[j]; cap(old) >= n {
			a.kept[j] = old[:n]
		} else {
			// Columns widened since this row was carved; empty it so its
			// slab keeps no text alive.
			clear(old)
			a.kept[j] = make([]sqldb.Value, n)
		}
		return a.kept[j]
	}
	if len(a.slab) < n {
		rows := min(a.cap-len(a.kept), max(1, a.lines-a.seen+1), max(1, slabValues/n))
		a.slab = make([]sqldb.Value, rows*n)
	}
	row := a.slab[:n:n]
	a.slab = a.slab[n:]
	a.kept = append(a.kept, row)
	return row
}

// parseCSV ingests CSV content: header detection on the first record,
// ragged rows padded with NULL or truncated to the header width.
func parseCSV(raw []byte, truncated bool, res *Result, acc *rowAccumulator) error {
	if truncated {
		// Drop the partial trailing record the byte budget cut through.
		if i := bytes.LastIndexByte(raw, '\n'); i >= 0 {
			raw = raw[:i+1]
		} else {
			raw = nil
		}
	}
	acc.lines = bytes.Count(raw, []byte{'\n'}) + 1
	cr := csv.NewReader(bytes.NewReader(raw))
	cr.FieldsPerRecord = -1
	cr.LazyQuotes = true
	first, err := cr.Read()
	if err == io.EOF {
		return fmt.Errorf("ingest %s: empty input", res.Name)
	}
	if err != nil {
		return fmt.Errorf("ingest %s: csv: %w", res.Name, err)
	}
	var pending [][]string
	if looksLikeHeader(first) {
		res.HeaderDetected = true
		for i, h := range first {
			acc.columnIndex(cleanColumnName(h, i))
		}
	} else {
		for i := range first {
			acc.columnIndex("col" + fmt.Sprint(i+1))
		}
		pending = append(pending, first)
	}
	appendRec := func(rec []string) {
		// Ragged rows: extra cells extend the column set only when the
		// header was synthetic; with a detected header they are dropped.
		if !res.HeaderDetected {
			for len(acc.cols) < len(rec) && len(acc.cols) < maxColumns {
				acc.columnIndex("col" + fmt.Sprint(len(acc.cols)+1))
			}
		}
		// A discarded row is still classified: every scanned cell widens
		// its column's type.
		row := acc.slot(len(acc.cols))
		for i := range acc.cols {
			v := sqldb.Null()
			if i < len(rec) {
				var ct ColType
				v, ct = classify(rec[i])
				acc.colTypes[i] = mergeColType(acc.colTypes[i], ct)
			}
			if row != nil {
				row[i] = v
			}
		}
	}
	for _, rec := range pending {
		appendRec(rec)
	}
	// Cells are substrings of one string per record, so the record slice
	// itself can be reused once the first record is consumed.
	cr.ReuseRecord = true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("ingest %s: csv record %d: %w", res.Name, acc.seen+1, err)
		}
		appendRec(rec)
	}
	return nil
}

// parseNDJSON ingests newline-delimited JSON objects. Keys are read in
// document order so column order is deterministic; a truncated final line is
// dropped when the byte budget cut through it.
func parseNDJSON(raw []byte, truncated bool, res *Result, acc *rowAccumulator) error {
	if truncated {
		if i := bytes.LastIndexByte(raw, '\n'); i >= 0 {
			raw = raw[:i+1]
		} else {
			raw = nil
		}
	}
	res.HeaderDetected = true
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(text))
		dec.UseNumber()
		row, err := decodeObjectRow(dec, acc)
		if err != nil {
			return fmt.Errorf("ingest %s: ndjson line %d: %w", res.Name, line, err)
		}
		acc.add(row)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ingest %s: ndjson: %w", res.Name, err)
	}
	return nil
}

// parseJSONArray ingests a JSON array of objects, decoding elements
// incrementally. When the byte budget truncated the array, rows parsed
// before the cut are kept.
func parseJSONArray(raw []byte, truncated bool, res *Result, acc *rowAccumulator) error {
	res.HeaderDetected = true
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("ingest %s: json: %w", res.Name, err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("ingest %s: json: expected an array of objects", res.Name)
	}
	for dec.More() {
		row, err := decodeObjectRow(dec, acc)
		if err != nil {
			if truncated {
				// The budget cut mid-element; keep what parsed cleanly.
				return nil
			}
			return fmt.Errorf("ingest %s: json element %d: %w", res.Name, acc.seen+1, err)
		}
		acc.add(row)
	}
	if _, err := dec.Token(); err != nil && !truncated {
		return fmt.Errorf("ingest %s: json: %w", res.Name, err)
	}
	return nil
}

// decodeObjectRow decodes one JSON object into a row aligned to the
// accumulator's columns, reading keys in document order.
func decodeObjectRow(dec *json.Decoder, acc *rowAccumulator) ([]sqldb.Value, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("expected an object, got %v", tok)
	}
	row := make([]sqldb.Value, len(acc.cols))
	for i := range row {
		row[i] = sqldb.Null()
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, ok := keyTok.(string)
		if !ok {
			return nil, fmt.Errorf("expected an object key, got %v", keyTok)
		}
		var rawVal json.RawMessage
		if err := dec.Decode(&rawVal); err != nil {
			return nil, err
		}
		name := cleanColumnName(key, len(acc.cols))
		idx := acc.columnIndex(name)
		for len(row) <= idx {
			row = append(row, sqldb.Null())
		}
		v, ct, err := classifyJSON(rawVal)
		if err != nil {
			return nil, fmt.Errorf("key %q: %w", key, err)
		}
		row[idx] = v
		if idx < len(acc.colTypes) {
			acc.colTypes[idx] = mergeColType(acc.colTypes[idx], ct)
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return nil, err
	}
	return row, nil
}

// classifyJSON converts one raw JSON value into its sqldb value and ingest
// type. Strings go through the same textual classifier as CSV cells (so
// dates and null tokens behave identically across formats); numbers keep
// their JSON int/float distinction; nested arrays/objects stringify.
func classifyJSON(raw json.RawMessage) (sqldb.Value, ColType, error) {
	t := bytes.TrimSpace(raw)
	if len(t) == 0 || bytes.Equal(t, []byte("null")) {
		return sqldb.Null(), ColUnknown, nil
	}
	switch t[0] {
	case '"':
		var s string
		if err := json.Unmarshal(t, &s); err != nil {
			return sqldb.Null(), ColUnknown, err
		}
		v, ct := classify(s)
		return v, ct, nil
	case 't', 'f':
		var b bool
		if err := json.Unmarshal(t, &b); err != nil {
			return sqldb.Null(), ColUnknown, err
		}
		return sqldb.Bool(b), ColBool, nil
	case '[', '{':
		return sqldb.Text(string(t)), ColString, nil
	default:
		var n json.Number
		if err := json.Unmarshal(t, &n); err != nil {
			return sqldb.Null(), ColUnknown, err
		}
		if i, err := n.Int64(); err == nil {
			return sqldb.Int(i), ColInt, nil
		}
		f, err := n.Float64()
		if err != nil {
			return sqldb.Null(), ColUnknown, err
		}
		return sqldb.Float(f), ColFloat, nil
	}
}

// tableFingerprint hashes a table's schema and rows; equal fingerprints mean
// bit-identical catalogs. The hashed text is a "table|name|columns|rows"
// line, a "col|name|kind" line per column and a "kind|text" line per cell,
// text as Value.String prints it. It is built in one reused buffer and
// written in blocks, so a cell costs no allocation.
func tableFingerprint(t *sqldb.Table) string {
	const block = 4 << 10
	h := sha256.New()
	b := make([]byte, 0, 2*block)
	b = append(b, "table|"...)
	b = append(b, strings.ToLower(t.Name)...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(t.Columns)), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(t.Rows)), 10)
	b = append(b, '\n')
	for _, c := range t.Columns {
		b = append(b, "col|"...)
		b = append(b, strings.ToLower(c.Name)...)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(c.Type), 10)
		b = append(b, '\n')
	}
	for _, row := range t.Rows {
		for _, v := range row {
			b = strconv.AppendInt(b, int64(v.Kind()), 10)
			b = append(b, '|')
			b = appendValue(b, v)
			b = append(b, '\n')
		}
		if len(b) >= block {
			h.Write(b)
			b = b[:0]
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// appendValue appends v's text as Value.String renders it, without the
// string String allocates for a number.
func appendValue(b []byte, v sqldb.Value) []byte {
	switch v.Kind() {
	case sqldb.KindInt:
		i, _ := v.AsInt()
		return strconv.AppendInt(b, i, 10)
	case sqldb.KindFloat:
		f, _ := v.AsFloat()
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	return append(b, v.String()...)
}
