package nl

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/textutil"
)

// Kind enumerates the semantic shapes of claims the corpus generates. The
// distribution over kinds per dataset drives the query-complexity statistics
// of Table 3.
type Kind int

// Claim kinds, roughly ordered by translation difficulty.
const (
	// KindLookup reads one cell: SELECT col FROM t WHERE entity = v.
	KindLookup Kind = iota
	// KindCountAll counts all rows of the entity table.
	KindCountAll
	// KindCount counts rows matching an equality filter.
	KindCount
	// KindSum aggregates a column with SUM (optional filter).
	KindSum
	// KindAvg aggregates a column with AVG (optional filter).
	KindAvg
	// KindMin aggregates a column with MIN.
	KindMin
	// KindMax aggregates a column with MAX.
	KindMax
	// KindDiff is the range MAX - MIN of a column.
	KindDiff
	// KindArgMax looks up the entity attaining the maximum of a column
	// (textual claim value).
	KindArgMax
	// KindArgMin looks up the entity attaining the minimum of a column.
	KindArgMin
	// KindPercent is the share of rows matching a filter, in percent.
	KindPercent
	// KindMode is the most frequent value of a categorical column
	// (requires GROUP BY; textual claim value).
	KindMode
)

// String returns the kind's name.
func (k Kind) String() string {
	names := [...]string{"Lookup", "CountAll", "Count", "Sum", "Avg", "Min", "Max", "Diff", "ArgMax", "ArgMin", "Percent", "Mode"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec is the semantic core of a claim: which relation of the data the
// claimed value denotes. A Spec plus a schema determines a SQL query; a Spec
// plus a lexicon determines an English sentence.
type Spec struct {
	Kind Kind
	// Column is the measure column (empty for Count/CountAll/Percent).
	Column string
	// EntityCol is the entity-identifying text column (Lookup, ArgMax,
	// ArgMin, and as COUNT target for Percent).
	EntityCol string
	// EntityVal is the entity constant for Lookup, as it should appear in
	// the SQL query (the sentence may use an alias).
	EntityVal string
	// FilterCol/FilterVal form an equality predicate (Count, Percent, and
	// optionally Sum/Avg/Min/Max).
	FilterCol string
	FilterVal string
	// FilterIsText marks whether FilterVal must be quoted in SQL.
	FilterIsText bool
	// ConvFactor multiplies the query result for unit conversion; 0 and 1
	// both mean "no conversion".
	ConvFactor float64
	// Noun is the plural table noun used in sentences ("airlines"); it
	// guides table resolution during parsing.
	Noun string
}

// ErrNoColumn indicates the spec references a column absent from the schema.
var ErrNoColumn = errors.New("nl: column not in schema")

// ErrNoJoinPath indicates the referenced columns live in tables that cannot
// be connected by shared key columns.
var ErrNoJoinPath = errors.New("nl: no join path between tables")

// BuildSQL renders the spec into a SQL query against the given schema,
// inserting joins when the referenced columns span multiple tables. This is
// the query-construction knowledge shared by the gold-label generator and
// the simulated models; what differs between them is which Spec they hold.
// The query is one allocation of its exact size: writeSQL runs once to
// measure it and once to write it.
func BuildSQL(schema *Schema, s *Spec) (string, error) {
	from, err := s.from(schema)
	if err != nil {
		return "", err
	}
	conv := ""
	switch s.Kind {
	case KindLookup, KindSum, KindAvg, KindMin, KindMax, KindDiff:
		if s.ConvFactor != 0 && s.ConvFactor != 1 {
			conv = textutil.FormatNumber(s.ConvFactor)
		}
	}
	var w sqlWriter
	s.writeSQL(&w, from, conv)
	var b strings.Builder
	b.Grow(w.n)
	w.b = &b
	s.writeSQL(&w, from, conv)
	return b.String(), nil
}

// from locates the FROM clause of the spec's query: the tables of the
// columns its kind reads.
func (s *Spec) from(schema *Schema) (fromClause, error) {
	switch s.Kind {
	case KindLookup, KindArgMax, KindArgMin:
		return joinFor(schema, s.Column, s.EntityCol)
	case KindCountAll:
		if s.EntityCol == "" {
			return fromClause{}, fmt.Errorf("%w: CountAll needs an entity column", ErrNoColumn)
		}
		return joinFor(schema, s.EntityCol)
	case KindCount:
		return joinFor(schema, s.FilterCol)
	case KindSum, KindAvg, KindMin, KindMax:
		return joinFor(schema, s.Column, s.FilterCol)
	case KindDiff, KindMode:
		return joinFor(schema, s.Column)
	case KindPercent:
		return joinFor(schema, s.FilterCol, s.EntityCol)
	}
	return fromClause{}, fmt.Errorf("nl: unknown spec kind %v", s.Kind)
}

// writeSQL writes the query of a spec whose FROM clause from has located;
// conv is the rendered unit-conversion factor, empty for none.
func (s *Spec) writeSQL(w *sqlWriter, from fromClause, conv string) {
	switch s.Kind {
	case KindLookup:
		w.str("SELECT ")
		w.ident(s.Column)
		w.conv(conv)
		w.str(" FROM ")
		w.from(from)
		w.str(" WHERE ")
		w.ident(s.EntityCol)
		w.str(" = ")
		w.text(s.EntityVal)
	case KindCountAll:
		w.str("SELECT COUNT(")
		w.ident(s.EntityCol)
		w.str(") FROM ")
		w.from(from)
	case KindCount:
		w.str("SELECT COUNT(*) FROM ")
		w.from(from)
		w.str(" WHERE ")
		w.ident(s.FilterCol)
		w.str(" = ")
		s.filterLiteral(w)
	case KindSum, KindAvg, KindMin, KindMax:
		w.str("SELECT ")
		w.str(aggregateOf[s.Kind])
		w.str("(")
		w.ident(s.Column)
		w.str(")")
		w.conv(conv)
		w.str(" FROM ")
		w.from(from)
		if s.FilterCol != "" {
			w.str(" WHERE ")
			w.ident(s.FilterCol)
			w.str(" = ")
			s.filterLiteral(w)
		}
	case KindDiff:
		w.str("SELECT MAX(")
		w.ident(s.Column)
		w.str(") - MIN(")
		w.ident(s.Column)
		w.str(")")
		w.conv(conv)
		w.str(" FROM ")
		w.from(from)
	case KindArgMax, KindArgMin:
		w.str("SELECT ")
		w.ident(s.EntityCol)
		w.str(" FROM ")
		w.from(from)
		w.str(" WHERE ")
		w.ident(s.Column)
		w.str(" = (SELECT ")
		w.str(aggregateOf[s.Kind])
		w.str("(")
		w.ident(s.Column)
		w.str(") FROM ")
		w.from(from)
		w.str(")")
	case KindMode:
		w.str("SELECT ")
		w.ident(s.Column)
		w.str(" FROM ")
		w.from(from)
		w.str(" GROUP BY ")
		w.ident(s.Column)
		w.str(" ORDER BY COUNT(*) DESC LIMIT 1")
	case KindPercent:
		target := func() {
			if s.EntityCol != "" {
				w.ident(s.EntityCol)
			} else {
				w.str("*")
			}
		}
		w.str("SELECT (SELECT COUNT(")
		target()
		w.str(") FROM ")
		w.from(from)
		w.str(" WHERE ")
		w.ident(s.FilterCol)
		w.str(" = ")
		s.filterLiteral(w)
		w.str(") * 100.0 / (SELECT COUNT(")
		target()
		w.str(") FROM ")
		w.from(from)
		w.str(")")
	}
}

// aggregateOf is the SQL aggregate each aggregating kind applies.
var aggregateOf = [...]string{
	KindSum: "SUM", KindAvg: "AVG", KindMin: "MIN", KindMax: "MAX",
	KindArgMax: "MAX", KindArgMin: "MIN",
}

func (s *Spec) filterLiteral(w *sqlWriter) {
	if s.FilterIsText {
		w.text(s.FilterVal)
	} else {
		w.str(s.FilterVal)
	}
}

// sqlWriter writes a query into b, or with b nil measures it into n.
type sqlWriter struct {
	n int
	b *strings.Builder
}

func (w *sqlWriter) str(s string) {
	if w.b == nil {
		w.n += len(s)
	} else {
		w.b.WriteString(s)
	}
}

// ident writes a double-quoted identifier.
func (w *sqlWriter) ident(name string) {
	w.str(`"`)
	w.str(name)
	w.str(`"`)
}

// text writes a single-quoted string literal, its quotes doubled.
func (w *sqlWriter) text(v string) {
	w.str("'")
	for {
		i := strings.IndexByte(v, '\'')
		if i < 0 {
			break
		}
		w.str(v[:i+1])
		w.str("'")
		v = v[i+1:]
	}
	w.str(v)
	w.str("'")
}

// conv writes the unit-conversion factor that multiplies the expression
// before it, if there is one.
func (w *sqlWriter) conv(factor string) {
	if factor != "" {
		w.str(" * ")
		w.str(factor)
	}
}

func (w *sqlWriter) from(f fromClause) {
	if f.chain != "" {
		w.str(f.chain)
	} else {
		w.ident(f.table)
	}
}

// fromClause is a FROM clause (without the keyword): one table, or a
// rendered join chain.
type fromClause struct {
	table, chain string
}

func q(name string) string { return `"` + name + `"` }

// FromClause builds the FROM/JOIN clause (without the FROM keyword) that
// covers all the given columns in the schema, joining tables through shared
// key columns when necessary. It is the exported form of the join
// construction used by BuildSQL, needed by callers that rewrite existing
// queries against a normalized schema.
func FromClause(schema *Schema, cols []string) (string, error) {
	from, err := joinFor(schema, cols...)
	if err != nil || from.chain != "" {
		return from.chain, err
	}
	return q(from.table), nil
}

// joinFor determines the FROM clause covering all the given columns: a
// single table when one table has them all, otherwise a join chain over
// tables connected by shared key columns (columns named *_id or id).
func joinFor(schema *Schema, cols ...string) (fromClause, error) {
	var buf [2]string
	needed := buf[:0]
	for _, c := range cols {
		if c != "" {
			needed = append(needed, c)
		}
	}
	if len(needed) == 0 {
		return fromClause{}, fmt.Errorf("%w: no columns to locate", ErrNoColumn)
	}
	// Single-table fast path.
	for _, t := range schema.Tables {
		all := true
		for _, c := range needed {
			if !t.HasColumn(c) {
				all = false
				break
			}
		}
		if all {
			return fromClause{table: t.Name}, nil
		}
	}
	// Multi-table: pick one table per column, then connect them.
	home := make(map[string]string) // column -> table
	for _, c := range needed {
		tabs := schema.TablesWithColumn(c)
		if len(tabs) == 0 {
			return fromClause{}, fmt.Errorf("%w: %q", ErrNoColumn, c)
		}
		home[c] = tabs[0]
	}
	tableSet := map[string]bool{}
	var tables []string
	for _, c := range needed {
		if !tableSet[home[c]] {
			tableSet[home[c]] = true
			tables = append(tables, home[c])
		}
	}
	if len(tables) == 1 {
		return fromClause{table: tables[0]}, nil
	}
	chain, err := joinChain(schema, tables)
	return fromClause{chain: chain}, err
}

// joinChain builds a FROM clause connecting the given tables through shared
// key columns, inserting intermediate tables when needed (BFS over the
// key-sharing graph).
func joinChain(schema *Schema, targets []string) (string, error) {
	covered := map[string]bool{strings.ToLower(targets[0]): true}
	from := q(targets[0])
	for _, target := range targets[1:] {
		if covered[strings.ToLower(target)] {
			continue
		}
		path, err := shortestPath(schema, covered, target)
		if err != nil {
			return "", err
		}
		for _, hop := range path {
			from += fmt.Sprintf(" JOIN %s ON %s.%s = %s.%s",
				q(hop.to), q(hop.from), q(hop.key), q(hop.to), q(hop.key))
			covered[strings.ToLower(hop.to)] = true
		}
	}
	return from, nil
}

type joinHop struct {
	from, to, key string
}

// shortestPath finds a key-join path from any covered table to target.
func shortestPath(schema *Schema, covered map[string]bool, target string) ([]joinHop, error) {
	type node struct {
		table string
		path  []joinHop
	}
	var queue []node
	visited := map[string]bool{}
	for t := range covered {
		queue = append(queue, node{table: t})
		visited[t] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		curTab := schema.Table(cur.table)
		if curTab == nil {
			continue
		}
		for _, other := range schema.Tables {
			lo := strings.ToLower(other.Name)
			if visited[lo] {
				continue
			}
			key := sharedKey(curTab, &other)
			if key == "" {
				continue
			}
			path := append(append([]joinHop{}, cur.path...), joinHop{from: curTab.Name, to: other.Name, key: key})
			if strings.EqualFold(other.Name, target) {
				return path, nil
			}
			visited[lo] = true
			queue = append(queue, node{table: lo, path: path})
		}
	}
	return nil, fmt.Errorf("%w: cannot reach %q", ErrNoJoinPath, target)
}

// sharedKey returns a column name shared by both tables that looks like a
// join key (id or *_id), or "" when none exists.
func sharedKey(a, b *SchemaTable) string {
	for _, c := range a.Columns {
		lower := strings.ToLower(c.Name)
		if lower != "id" && !strings.HasSuffix(lower, "_id") {
			continue
		}
		if b.HasColumn(c.Name) {
			return c.Name
		}
	}
	return ""
}
