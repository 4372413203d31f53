package sqldb

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type Kind
}

// Table is an in-memory relation: an ordered column list plus row storage.
type Table struct {
	Name    string
	Columns []Column
	Rows    [][]Value
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
// row length must match the column count.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("table %s: row has %d values, want %d", t.Name, len(vals), len(t.Columns))
	}
	for i, v := range vals {
		t.Columns[i].Type = mergeKind(t.Columns[i].Type, v.Kind())
	}
	t.Rows = append(t.Rows, vals)
	return nil
}

// MustAppendRow is AppendRow but panics on arity mismatch; intended for
// static table construction in corpora and tests.
func (t *Table) MustAppendRow(vals ...Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the ordered column names.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
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
	for _, row := range t.Rows {
		v := row[idx]
		if v.IsNull() {
			continue
		}
		k := v.key()
		if !seen[k] {
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

// tableImage is a table's column-resident form: one immutable vector per
// column, built from Rows when the table is registered. Rows stay the
// construction and interchange surface; the image is what scans read, as
// slice views, so the row-to-column layout change is paid once per table
// instead of once per query.
type tableImage struct {
	n    int // len(Rows) when the image was built
	cols []*Vec
	// paths holds each column's lazily built access paths (access.go); nil
	// for an image of at most windowRows rows, which is only ever scanned.
	paths []colPaths
}

// buildImage transposes t.Rows into typed column vectors, each stored unboxed
// under the kind of its first non-NULL cell and demoted to generic storage if
// a later cell disagrees. A row shorter than the column list (only a caller
// writing Rows directly can make one) reads NULL past its end.
func buildImage(t *Table) *tableImage {
	cell := func(row []Value, c int) Value {
		if c < len(row) {
			return row[c]
		}
		return Null()
	}
	img := &tableImage{n: len(t.Rows), cols: make([]*Vec, len(t.Columns))}
	for c := range img.cols {
		kind := KindNull
		for _, row := range t.Rows {
			if kind = cell(row, c).Kind(); kind != KindNull {
				break
			}
		}
		v := NewVec(kind, len(t.Rows))
		for _, row := range t.Rows {
			v.Append(cell(row, c))
		}
		img.cols[c] = v
	}
	if img.n > windowRows {
		img.paths = make([]colPaths, len(img.cols))
	}
	return img
}

// Database is a named collection of tables. Catalog reads and writes are
// safe for concurrent use; the tables themselves must not be mutated after
// registration: queries read the column image AddTable built, and a query
// that finds a table's row count changed since rebuilds the image from the
// live rows first (see vecPlan.run).
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
// (case-insensitive) name. Its column image is built here, before the table
// is published, so no query ever transposes rows; registering the same
// *Table again rebuilds the image from its current Rows. Cached query plans
// that reference the table are invalidated: they may have bound column
// positions against the replaced schema. Plans over other tables stay cached.
func (d *Database) AddTable(t *Table) {
	img := buildImage(t)
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

// refreshImage rebuilds t's column image from its live rows, as AddTable
// does, and publishes it if t is still the registered table of its name.
func (d *Database) refreshImage(t *Table) *tableImage {
	img := buildImage(t)
	key := strings.ToLower(t.Name)
	d.mu.Lock()
	if d.tables[key] == t {
		d.images[key] = img
	}
	d.mu.Unlock()
	return img
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
// version and shared until the catalog changes. Like the column image, it
// follows AddTable: a table altered in place shows once it is registered
// again.
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
		for i, c := range t.Columns {
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
		for i, row := range t.Rows {
			if i >= n {
				break
			}
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
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
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("load csv %s: %w", name, err)
		}
		row := make([]Value, len(t.Columns))
		for i := range row {
			if i < len(rec) {
				row[i] = inferLiteral(rec[i])
			} else {
				row[i] = Null()
			}
		}
		t.Rows = append(t.Rows, row)
		for i, v := range row {
			t.Columns[i].Type = mergeKind(t.Columns[i].Type, v.Kind())
		}
	}
	return t, nil
}
