package sqldb

import (
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// catalog.go holds tables and the databases that register them. A table is
// filled row by row and frozen when first registered; a database's state is
// one immutable catalog value behind an atomic pointer, which every write
// replaces and every query loads once.

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
	t    *Table // the registered table
	n    int    // rows
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
	img := &tableImage{t: t, n: t.n, cols: t.cols}
	if t.n > windowRows {
		img.paths = make([]colPaths, len(t.cols))
	}
	return img
}

// Database is a named collection of tables. Its state is one immutable
// catalog value, which AddTable and RemoveTable replace whole: a query loads
// the current catalog once and reads only it, subqueries included, with no
// catalog lock and no staleness check. AddTable freezes a table, so the column images
// a catalog holds cannot change under a query either: a registered table
// refuses AppendRow. All methods are safe for concurrent use.
type Database struct {
	Name string

	cat   atomic.Pointer[catalog]
	wmu   sync.Mutex // serialises the writers: AddTable, RemoveTable, InvalidatePlans
	stats planStats  // plan-cache and access-path counters over every catalog (stmt_cache.go)
}

// catalog is one state of a database: each table's image under its
// lowercased name, the registration order, and what is derived from them once
// — the schema text every prompt carries, rendered on first use, and the
// compiled plans. Nothing else is written once a catalog is published; a
// plan compiled against a catalog binds that catalog's images
// (stmt_cache.go).
type catalog struct {
	images map[string]*tableImage
	order  []string // lowercased names; a new catalog gets a new slice
	stats  *planStats

	schemaOnce sync.Once
	schema     string

	mu    sync.Mutex // guards plans
	plans map[string]planEntry
}

// NewDatabase constructs an empty database.
func NewDatabase(name string) *Database {
	d := &Database{Name: name}
	d.cat.Store(&catalog{images: make(map[string]*tableImage), stats: &d.stats})
	return d
}

// AddTable registers a table, replacing any previous table with the same
// (case-insensitive) name in its place in the registration order, and
// freezes it: its vectors become the image queries read. A frozen table may
// be registered again, here or in another database; each registration gets
// access paths of its own. Cached plans that looked the name up are dropped:
// they bound the replaced image. Plans over other tables stay cached.
func (d *Database) AddTable(t *Table) {
	img := newImage(t)
	key := strings.ToLower(t.Name)
	d.wmu.Lock()
	defer d.wmu.Unlock()
	old := d.cat.Load()
	order := old.order
	if old.images[key] == nil {
		order = append(order[:len(order):len(order)], key)
	}
	d.cat.Store(old.next(key, img, order))
}

// RemoveTable drops the named table (case-insensitive) and the cached plans
// that looked it up. It reports whether the table existed.
func (d *Database) RemoveTable(name string) bool {
	key := strings.ToLower(name)
	d.wmu.Lock()
	defer d.wmu.Unlock()
	old := d.cat.Load()
	i := slices.Index(old.order, key)
	if i < 0 {
		return false
	}
	d.cat.Store(old.next(key, nil, append(old.order[:i:i], old.order[i+1:]...)))
	return true
}

// next returns the catalog that differs from c only in table key, which
// holds img or, when img is nil, nothing, with the given registration order.
// It carries over every cached plan of c that did not look key up: the images
// such a plan binds are the new catalog's too.
func (c *catalog) next(key string, img *tableImage, order []string) *catalog {
	n := &catalog{images: maps.Clone(c.images), order: order, stats: c.stats}
	if img != nil {
		n.images[key] = img
	} else {
		delete(n.images, key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for sql, e := range c.plans {
		if !slices.Contains(e.tables, key) {
			if n.plans == nil {
				n.plans = make(map[string]planEntry, len(c.plans))
			}
			n.plans[sql] = e
		}
	}
	return n
}

// Table returns the named table (case-insensitive), or nil when absent.
func (d *Database) Table(name string) *Table {
	if img := d.cat.Load().images[strings.ToLower(name)]; img != nil {
		return img.t
	}
	return nil
}

// Tables returns all tables in registration order.
func (d *Database) Tables() []*Table { return d.cat.Load().tables() }

func (c *catalog) tables() []*Table {
	out := make([]*Table, len(c.order))
	for i, k := range c.order {
		out[i] = c.images[k].t
	}
	return out
}

// Schema renders a compact CREATE TABLE description of every table, used to
// fill the {db_schema} placeholder of the verification prompt templates.
// Every attempt's prompt carries it, so each catalog renders it once.
func (d *Database) Schema() string {
	c := d.cat.Load()
	c.schemaOnce.Do(func() { c.schema = renderSchema(c.tables()) })
	return c.schema
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
