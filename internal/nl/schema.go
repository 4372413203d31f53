// Package nl defines the natural-language claim layer shared by the
// benchmark generator and the simulated language models: query specs (the
// semantic core of a claim), sentence templates that render specs into
// English claims, a lexicon mapping corpus columns to phrases and units, and
// a parser mapping masked claim sentences back to specs against a schema.
//
// The generator renders Spec -> sentence; the simulated model parses
// sentence -> Spec against the schema text it finds in its prompt, exactly
// the way a real LLM reads English and CREATE TABLE statements. Hazards
// (entity aliases, ambiguous phrases, unit mismatches) are planted in the
// rendered text and data, so translation failures and agent-tool recoveries
// arise from the same mechanisms the paper describes.
package nl

import (
	"strings"

	"repro/internal/sqldb"
)

// SchemaColumn is one column of a schema as visible in prompt text.
type SchemaColumn struct {
	Name string
	Type string // SQL type name, e.g. TEXT, INTEGER, REAL

	// lower is strings.ToLower(Name), which the parsers fill in so that
	// resolution against a memoised Schema does not lower-case every
	// column of every parse; empty on a column built by hand.
	lower string
}

func newSchemaColumn(name, typ string) SchemaColumn {
	return SchemaColumn{Name: name, Type: typ, lower: strings.ToLower(name)}
}

// lowerName is strings.ToLower(c.Name).
func (c *SchemaColumn) lowerName() string {
	if c.lower == "" && c.Name != "" {
		return strings.ToLower(c.Name)
	}
	return c.lower
}

// SchemaTable is one table of a schema.
type SchemaTable struct {
	Name    string
	Columns []SchemaColumn
}

// HasColumn reports whether the table has the named column
// (case-insensitive).
func (t *SchemaTable) HasColumn(name string) bool {
	for _, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return true
		}
	}
	return false
}

// Schema is the structural description of a database as recoverable from
// the {db_schema} prompt placeholder.
type Schema struct {
	Tables []SchemaTable
}

// SchemaFromDatabase extracts the Schema of an in-memory database.
func SchemaFromDatabase(db *sqldb.Database) *Schema {
	s := &Schema{}
	for _, t := range db.Tables() {
		st := SchemaTable{Name: t.Name}
		for _, c := range t.Columns {
			st.Columns = append(st.Columns, newSchemaColumn(c.Name, c.Type.String()))
		}
		s.Tables = append(s.Tables, st)
	}
	return s
}

// ParseSchemaText recovers a Schema from CREATE TABLE statements of the form
// produced by sqldb.Database.Schema — the form embedded in verification
// prompts. Lines that do not look like CREATE TABLE are ignored, mirroring
// how a model skims prompt text.
func ParseSchemaText(text string) *Schema {
	s := &Schema{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		upper := strings.ToUpper(line)
		if !strings.HasPrefix(upper, "CREATE TABLE") {
			continue
		}
		open := strings.IndexByte(line, '(')
		if open < 0 {
			continue
		}
		namePart := strings.TrimSpace(line[len("CREATE TABLE"):open])
		name := strings.Trim(namePart, `" `)
		if name == "" {
			continue
		}
		body := line[open+1:]
		if close := strings.LastIndexByte(body, ')'); close >= 0 {
			body = body[:close]
		}
		st := SchemaTable{Name: name}
		for _, colDef := range splitTopLevel(body, ',') {
			colDef = strings.TrimSpace(colDef)
			if colDef == "" {
				continue
			}
			colName, colType := splitColDef(colDef)
			if colName != "" {
				st.Columns = append(st.Columns, newSchemaColumn(colName, colType))
			}
		}
		s.Tables = append(s.Tables, st)
	}
	return s
}

// splitColDef separates `"col name" TYPE` into name and type, handling
// quoted names containing spaces.
func splitColDef(def string) (name, typ string) {
	def = strings.TrimSpace(def)
	if strings.HasPrefix(def, `"`) {
		end := strings.Index(def[1:], `"`)
		if end < 0 {
			return strings.Trim(def, `"`), ""
		}
		return def[1 : 1+end], strings.TrimSpace(def[2+end:])
	}
	fields := strings.Fields(def)
	if len(fields) == 0 {
		return "", ""
	}
	return fields[0], strings.Join(fields[1:], " ")
}

// splitTopLevel splits s on sep outside quoted regions.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	depth := 0
	inQuote := byte(0)
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

// Table returns the named table (case-insensitive), or nil.
func (s *Schema) Table(name string) *SchemaTable {
	for i := range s.Tables {
		if strings.EqualFold(s.Tables[i].Name, name) {
			return &s.Tables[i]
		}
	}
	return nil
}

// TablesWithColumn returns the names of all tables containing the column.
func (s *Schema) TablesWithColumn(col string) []string {
	var out []string
	for _, t := range s.Tables {
		if t.HasColumn(col) {
			out = append(out, t.Name)
		}
	}
	return out
}

// IsTextColumn reports whether the named column is typed TEXT in any table
// that has it.
func (s *Schema) IsTextColumn(col string) bool {
	for _, t := range s.Tables {
		for _, c := range t.Columns {
			if strings.EqualFold(c.Name, col) && strings.EqualFold(c.Type, "TEXT") {
				return true
			}
		}
	}
	return false
}
