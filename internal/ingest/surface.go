package ingest

import (
	"fmt"
	"strings"

	"repro/internal/nl"
	"repro/internal/sqldb"
	"repro/internal/textutil"
)

// surface.go derives the verification surface of an ingested table the way
// dynamic-graphql-api derives an API from an introspected schema: every
// column yields filter/aggregate query templates mechanically, and each
// template that evaluates to a usable scalar yields a synthetic claim that
// is true by construction (its value is the gold query's own result). The
// claims exercise only sentence templates the nl parser round-trips via its
// lexicon fallbacks, so they verify on an unmodified pipeline.

// Template is one mechanically derived query form over an ingested column.
type Template struct {
	// Column is the subject column ("" for table-level templates).
	Column string `json:"column,omitempty"`
	// Kind names the query form: count_all, lookup, sum, avg, min, max,
	// count, or filter (the parameterized form, with a ? placeholder).
	Kind string `json:"kind"`
	// SQL is the query text; filter templates carry a ? placeholder.
	SQL string `json:"sql"`
}

// SurfaceClaim is one synthetic, true-by-construction claim.
type SurfaceClaim struct {
	ID string `json:"id"`
	// Sentence contains Value verbatim; Context is a one-line intro the
	// verification methods can read.
	Sentence string `json:"sentence"`
	Value    string `json:"value"`
	Context  string `json:"context"`
	// Query is the gold SQL the value was computed from.
	Query string `json:"query"`
}

// Surface is the generated verification surface of one dataset.
type Surface struct {
	// Entity is the column identifying rows (used for lookups), or "".
	Entity    string         `json:"entity,omitempty"`
	Templates []Template     `json:"templates"`
	Claims    []SurfaceClaim `json:"claims"`
}

// BuildSurface generates the verification surface for the named table. The
// table must already be registered in db (gold values are computed by
// executing the generated SQL against it). Generation is deterministic: no
// randomness, claims in column order.
func BuildSurface(db *sqldb.Database, tableName string) (*Surface, error) {
	t := db.Table(tableName)
	if t == nil {
		return nil, fmt.Errorf("ingest: table %q not registered", tableName)
	}
	schema := nl.SchemaFromDatabase(db)
	var st *nl.SchemaTable
	for i := range schema.Tables {
		if strings.EqualFold(schema.Tables[i].Name, tableName) {
			st = &schema.Tables[i]
			break
		}
	}
	if st == nil {
		return nil, fmt.Errorf("ingest: table %q missing from schema", tableName)
	}
	lex := nl.DefaultLexicon()
	noun := lex.TableNoun(t.Name)
	ent := nl.EntityColumnOf(st)

	s := &Surface{Entity: ent}
	addClaim := func(spec *nl.Spec, kind string) {
		sql, err := nl.BuildSQL(schema, spec)
		if err != nil {
			return
		}
		s.Templates = append(s.Templates, Template{Column: spec.Column, Kind: kind, SQL: sql})
		gold, err := sqldb.QueryScalar(db, sql)
		if err != nil || gold.IsNull() {
			return
		}
		display, ok := displayValue(gold)
		if !ok || display == "" || (spec.FilterVal != "" && display == spec.FilterVal) {
			return
		}
		sentence := nl.RenderSentence(spec, lex, nl.RenderOptions{Value: display})
		if _, ok := textutil.FindValueSpan(sentence, display); !ok {
			return
		}
		col := spec.Column
		if col == "" {
			col = "rows"
		}
		s.Claims = append(s.Claims, SurfaceClaim{
			ID:       fmt.Sprintf("%s-%s-%s", strings.ToLower(t.Name), kind, strings.ToLower(col)),
			Sentence: sentence,
			Value:    display,
			Context:  fmt.Sprintf("This article summarizes data about %s.", noun),
			Query:    sql,
		})
	}

	if ent != "" {
		addClaim(&nl.Spec{Kind: nl.KindCountAll, EntityCol: ent, Noun: noun}, "count_all")
	}

	lookupEntity := ""
	if ent != "" {
		lookupEntity = pickLookupEntity(t, t.ColumnIndex(ent))
	}

	for _, c := range t.Columns {
		if c.Type != sqldb.KindInt && c.Type != sqldb.KindFloat {
			continue
		}
		if strings.EqualFold(c.Name, ent) {
			continue
		}
		if lookupEntity != "" {
			addClaim(&nl.Spec{Kind: nl.KindLookup, Column: c.Name, EntityCol: ent, EntityVal: lookupEntity, Noun: noun}, "lookup")
		}
		addClaim(&nl.Spec{Kind: nl.KindSum, Column: c.Name, Noun: noun}, "sum")
		addClaim(&nl.Spec{Kind: nl.KindAvg, Column: c.Name, Noun: noun}, "avg")
		addClaim(&nl.Spec{Kind: nl.KindMin, Column: c.Name, Noun: noun}, "min")
		addClaim(&nl.Spec{Kind: nl.KindMax, Column: c.Name, Noun: noun}, "max")
	}

	// Count with a filter over the entity column's first value: "Exactly x
	// <noun> recorded <entity> of <v>."
	if ent != "" && lookupEntity != "" {
		addClaim(&nl.Spec{Kind: nl.KindCount, FilterCol: ent, FilterVal: lookupEntity, FilterIsText: true, Noun: noun}, "count")
	}

	// Parameterized per-column filter templates round out the surface.
	for _, c := range t.Columns {
		s.Templates = append(s.Templates, Template{
			Column: c.Name,
			Kind:   "filter",
			SQL:    fmt.Sprintf(`SELECT COUNT(*) FROM "%s" WHERE "%s" = ?`, t.Name, c.Name),
		})
	}

	if len(s.Claims) == 0 {
		return nil, fmt.Errorf("ingest: table %q yields no verifiable claims (no usable columns)", tableName)
	}
	return s, nil
}

// displayValue renders a gold scalar the way a claim sentence states it: text
// verbatim, whole numbers without a fraction, anything else to two decimals.
func displayValue(v sqldb.Value) (string, bool) {
	if v.Kind() == sqldb.KindText {
		return v.Text(), true
	}
	f, ok := v.AsFloat()
	if !ok {
		return "", false
	}
	prec := 0
	if f != float64(int64(f)) {
		prec = 2
	}
	return textutil.FormatNumber(textutil.RoundTo(f, prec)), true
}

// pickLookupEntity chooses the row the lookup claims describe: the first row
// with a non-null entity value whose text contains none of that row's numeric
// cells as displayed. A lookup sentence opens with the entity, so a value that
// is also a substring of it ("acct-00000 recorded 0 units.") would occur before
// its own token, and a consumer substituting the first occurrence would
// rewrite the entity instead. A lookup reads the first row matching the entity
// text, so a text that was passed over once stays passed over. When every row
// is ambiguous the first non-null entity stands.
func pickLookupEntity(t *sqldb.Table, entIdx int) string {
	if entIdx < 0 {
		return ""
	}
	first := ""
	ambiguous := map[string]bool{}
	for r := 0; r < t.NumRows(); r++ {
		cell := t.Cell(r, entIdx)
		if cell.IsNull() || cell.Text() == "" {
			continue
		}
		entity := cell.Text()
		if first == "" {
			first = entity
		}
		if ambiguous[entity] {
			continue
		}
		for ci, c := range t.Columns {
			if ci == entIdx || (c.Type != sqldb.KindInt && c.Type != sqldb.KindFloat) {
				continue
			}
			if d, ok := displayValue(t.Cell(r, ci)); ok && d != "" && strings.Contains(entity, d) {
				ambiguous[entity] = true
				break
			}
		}
		if !ambiguous[entity] {
			return entity
		}
	}
	return first
}
