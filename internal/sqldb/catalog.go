package sqldb

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type Kind
}

// Table is an in-memory relation: an ordered column list and one typed
// vector of cells per column. AppendRow fills it; the first AddTable freezes
// it, and from then on those vectors are the column image every query reads
// and a copy of Columns taken then is its schema: a later edit of Columns
// changes no query, Schema() or column lookup.
type Table struct {
	Name    string
	Columns []Column

	mu     sync.Mutex // serializes AppendRow with AddTable's freeze
	frozen bool
	n      int      // rows appended
	room   int      // rows promised by Grow
	cols   []*Vec   // cells per column; nil while all of a column's cells are NULL
	schema []Column // Columns as the first AddTable froze them; nil before
}

// NewTable constructs an empty table with the given column names. Column
// types start as NULL and are refined as rows are appended.
func NewTable(name string, cols ...string) *Table {
	t := &Table{Name: name}
	for _, c := range cols {
		t.Columns = append(t.Columns, Column{Name: c, Type: KindNull})
	}
	return t
}

// AppendRow adds a row, refining column types from the appended values. The
// row length must match the column count, and the table must not have been
// registered yet.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("table %s: row has %d values, want %d", t.Name, len(vals), len(t.Columns))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return fmt.Errorf("table %s: registered tables are read-only", t.Name)
	}
	t.cols = append(t.cols, make([]*Vec, max(0, len(t.Columns)-len(t.cols)))...)
	for i, v := range vals {
		t.Columns[i].Type = mergeKind(t.Columns[i].Type, v.Kind())
		if t.cols[i] == nil && !v.IsNull() {
			// Stored unboxed under the first non-NULL cell's kind, the NULLs
			// before it masked, and demoted if a later cell disagrees.
			t.cols[i] = NewVec(v.Kind(), max(t.room, t.n+1))
			for range t.n {
				t.cols[i].Append(Null())
			}
		}
		if t.cols[i] != nil {
			t.cols[i].Append(v)
		}
	}
	t.n++
	return nil
}

// MustAppendRow is AppendRow but panics on error; intended for static table
// construction in corpora and tests.
func (t *Table) MustAppendRow(vals ...Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// Grow tells t that n more rows are coming, before they are appended: each
// column's storage is then allocated once, at full size, when its first
// non-NULL cell arrives, instead of being grown copy by copy.
func (t *Table) Grow(n int) { t.room = t.n + n }

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int { return t.n }

// Cell returns the value at row r of column c.
func (t *Table) Cell(r, c int) Value {
	if c < len(t.cols) && t.cols[c] != nil {
		return t.cols[c].At(r)
	}
	return Null()
}

// columns is the table's column list: the frozen schema once registered,
// Columns before.
func (t *Table) columns() []Column {
	if t.schema != nil {
		return t.schema
	}
	return t.Columns
}

// Schema returns a copy of the table's column list: as the first AddTable
// froze it once the table is registered, Columns before.
func (t *Table) Schema() []Column { return slices.Clone(t.columns()) }

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.columns() {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the ordered column names.
func (t *Table) ColumnNames() []string {
	cols := t.columns()
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// UniqueValues returns the distinct non-NULL values of the named column in
// first-appearance order. This backs the agent's unique_column_values tool.
func (t *Table) UniqueValues(column string) ([]Value, error) {
	idx := t.ColumnIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("%w: column %q in table %q", ErrUnknownColumn, column, t.Name)
	}
	seen := make(map[string]bool)
	var out []Value
	for r := 0; r < t.n; r++ {
		v := t.Cell(r, idx)
		if k := v.key(); !v.IsNull() && !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// mergeKind widens a column type to accommodate a newly observed value kind.
func mergeKind(cur, next Kind) Kind {
	if next == KindNull {
		return cur
	}
	if cur == KindNull || cur == next {
		return next
	}
	if (cur == KindInt && next == KindFloat) || (cur == KindFloat && next == KindInt) {
		return KindFloat
	}
	return KindText
}

// tableImage is a registered table's column-resident form: the frozen
// table's vectors, which scans read as slice views, and the access paths one
// registration derives from them.
type tableImage struct {
	n    int // rows
	cols []*Vec
	// paths holds each column's lazily built access paths (access.go); nil
	// for an image of at most windowRows rows, which is only ever scanned.
	paths []colPaths
}

// newImage wraps t's vectors, uncopied, in an image with no access paths
// yet. The first call freezes t: it copies Columns as the schema and clips
// each vector to its length, so an append through a copy reallocates instead
// of writing into the table, and a column without a non-NULL cell is stored
// as generic NULLs. Registering t again wraps the same vectors.
func newImage(t *Table) *tableImage {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.frozen { // written only then: a frozen table's schema and cells are read unlocked
		t.schema = append(make([]Column, 0, len(t.Columns)), t.Columns...)
		t.cols = append(t.cols, make([]*Vec, max(0, len(t.schema)-len(t.cols)))...)
		for c, v := range t.cols {
			if v == nil {
				t.cols[c] = &Vec{any: make([]Value, t.n)} // the zero Value is NULL
			} else {
				t.cols[c] = new(Vec)
				t.cols[c].window(v, 0, t.n)
			}
		}
		t.frozen = true
	}
	img := &tableImage{n: t.n, cols: t.cols}
	if t.n > windowRows {
		img.paths = make([]colPaths, len(t.cols))
	}
	return img
}

// Database is a named collection of tables. Catalog reads and writes are
// safe for concurrent use. AddTable freezes a table, so the column image
// queries read cannot change under them: a registered table refuses
// AppendRow.
type Database struct {
	Name string

	mu      sync.RWMutex
	tables  map[string]*Table
	images  map[string]*tableImage // column image per table, same keys as tables
	order   []string
	version uint64 // bumped on every catalog change; guards cached plans
	// tableVers records, per (lowercased) table name, the catalog version at
	// which that table last changed. Entries persist across RemoveTable (a
	// removal is a change), so a plan compiled against a since-removed table
	// can never read a stale stamp of zero.
	tableVers map[string]uint64

	plans planCache // parsed-plan / prepared-statement cache (stmt_cache.go)

	// schema is the last Schema() rendering and the catalog version it was
	// rendered at. A reader uses it only while that version is current, so
	// the version bump in AddTable/RemoveTable is its whole invalidation.
	schema atomic.Pointer[schemaText]
}

type schemaText struct {
	version uint64
	text    string
}

// NewDatabase constructs an empty database.
func NewDatabase(name string) *Database {
	return &Database{
		Name:      name,
		tables:    make(map[string]*Table),
		images:    make(map[string]*tableImage),
		tableVers: make(map[string]uint64),
	}
}

// AddTable registers a table, replacing any previous table with the same
// (case-insensitive) name, and freezes it: its vectors become the image
// queries read. A frozen table may be registered again, here or in another
// database; each registration gets access paths of its own. Cached plans
// that reference the table are invalidated: they may have bound column
// positions against the replaced schema. Plans over other tables stay cached.
func (d *Database) AddTable(t *Table) {
	img := newImage(t)
	d.mu.Lock()
	key := strings.ToLower(t.Name)
	if _, exists := d.tables[key]; !exists {
		d.order = append(d.order, key)
	}
	d.tables[key] = t
	d.images[key] = img
	d.version++
	d.tableVers[key] = d.version
	d.mu.Unlock()
	d.plans.invalidate(key)
}

// RemoveTable drops the named table (case-insensitive) and invalidates
// cached plans referencing it. It reports whether the table existed.
func (d *Database) RemoveTable(name string) bool {
	d.mu.Lock()
	key := strings.ToLower(name)
	if _, exists := d.tables[key]; !exists {
		d.mu.Unlock()
		return false
	}
	delete(d.tables, key)
	delete(d.images, key)
	for i, k := range d.order {
		if k == key {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.version++
	d.tableVers[key] = d.version
	d.mu.Unlock()
	d.plans.invalidate(key)
	return true
}

// Table returns the named table (case-insensitive), or nil when absent.
func (d *Database) Table(name string) *Table {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tables[strings.ToLower(name)]
}

// Version returns the catalog version, which increments on every AddTable.
// Cached plans carry the version they were compiled against.
func (d *Database) Version() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.version
}

// snapshotTables resolves the named tables and their column images into
// tables and images (each as long as names) and returns their combined change
// stamp, all in one atomic step, so a concurrent AddTable cannot hand an
// executor a table whose schema differs from the plan it is about to run, or
// an image built from another table's rows. The stamp is the maximum
// per-table version over names: it moves only when one of the named tables
// changes, so churn on unrelated tables does not stale plans compiled
// against this set.
func (d *Database) snapshotTables(names []string, tables []*Table, images []*tableImage) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var stamp uint64
	for i, n := range names {
		key := strings.ToLower(n)
		tables[i], images[i] = d.tables[key], d.images[key]
		if v := d.tableVers[key]; v > stamp {
			stamp = v
		}
	}
	return stamp
}

// stampFor returns the combined change stamp of the named tables: the
// maximum catalog version at which any of them last changed (zero when none
// ever existed). Names must already be lowercased.
func (d *Database) stampFor(names []string) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var stamp uint64
	for _, n := range names {
		if v := d.tableVers[n]; v > stamp {
			stamp = v
		}
	}
	return stamp
}

// Tables returns all tables in registration order.
func (d *Database) Tables() []*Table {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tablesLocked()
}

// tablesLocked is Tables for a caller already holding d.mu.
func (d *Database) tablesLocked() []*Table {
	out := make([]*Table, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, d.tables[k])
	}
	return out
}

// TableNames returns the registered table names in registration order.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, d.tables[k].Name)
	}
	return out
}

// Schema renders a compact CREATE TABLE description of every table, used to
// fill the {db_schema} placeholder of the verification prompt templates.
// Every attempt's prompt carries it, so the text is rendered once per catalog
// version and shared until the catalog changes.
func (d *Database) Schema() string {
	d.mu.RLock()
	version := d.version
	if m := d.schema.Load(); m != nil && m.version == version {
		d.mu.RUnlock()
		return m.text
	}
	tables := d.tablesLocked()
	d.mu.RUnlock()
	// Rendered from the tables of exactly this version. A slower renderer of
	// an older version may store after a newer one; its entry then matches
	// no reader's version and is replaced on the next call.
	text := renderSchema(tables)
	d.schema.Store(&schemaText{version: version, text: text})
	return text
}

func renderSchema(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		fmt.Fprintf(&b, "CREATE TABLE \"%s\" (", t.Name)
		for i, c := range t.schema {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "\"%s\" %s", c.Name, c.Type)
		}
		b.WriteString(");\n")
	}
	return b.String()
}

// SampleRows renders up to n example rows per table in a pipe-separated
// layout. Prompt templates like P1 ("Create Table + Select 3") include such
// samples to ground the model in actual data values.
func (d *Database) SampleRows(n int) string {
	var b strings.Builder
	for _, t := range d.Tables() {
		fmt.Fprintf(&b, "-- %s\n", t.Name)
		b.WriteString(strings.Join(t.ColumnNames(), " | "))
		b.WriteByte('\n')
		for r := 0; r < min(n, t.n); r++ {
			cells := make([]string, len(t.columns()))
			for c := range cells {
				cells[c] = t.Cell(r, c).String()
			}
			b.WriteString(strings.Join(cells, " | "))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// LoadCSV reads a table from CSV data: the first record provides column
// names, subsequent records become rows with literal type inference.
func LoadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("load csv %s: header: %w", name, err)
	}
	t := NewTable(name, header...)
	row := make([]Value, len(t.Columns))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("load csv %s: %w", name, err)
		}
		rec = append(rec, make([]string, max(0, len(row)-len(rec)))...) // a short record is NULL past its end
		for i := range row {
			row[i] = inferLiteral(rec[i])
		}
		t.MustAppendRow(row...)
	}
	return t, nil
}
