package data

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/claim"
	"repro/internal/nl"
	"repro/internal/sqldb"
)

// AggChecker generates the AggChecker-shaped corpus: 56 documents with 392
// numerical claims in total (7 per document), spread evenly over the four
// source domains, with the alias and ambiguity hazards of real articles.
func AggChecker(seed int64) ([]*claim.Document, error) {
	return Generate(GenConfig{
		Seed:            seed,
		Docs:            56,
		ClaimsPerDoc:    7,
		IncorrectRate:   0.15,
		AliasRate:       0.55,
		ShortPhraseRate: 0.45,
	})
}

// TabFact generates the TabFact-shaped sample: 100 numerical claims over 28
// small Wikipedia-style tables, with simpler claims than AggChecker
// (mostly lookups and counts, per Table 3's complexity profile).
func TabFact(seed int64) ([]*claim.Document, error) {
	weights := map[nl.Kind]int{
		nl.KindLookup:   45,
		nl.KindCountAll: 8,
		nl.KindCount:    20,
		nl.KindSum:      8,
		nl.KindMax:      10,
		nl.KindMin:      5,
		nl.KindArgMax:   0,
		nl.KindPercent:  4,
	}
	docs, err := Generate(GenConfig{
		Seed:            seed,
		Docs:            28,
		ClaimsPerDoc:    4, // trimmed to 100 below
		IncorrectRate:   0.3,
		AliasRate:       0.15,
		ShortPhraseRate: 0,
		KindWeights:     weights,
		Domains:         []string{"TabFact"},
		RowsPerTable:    10,
	})
	if err != nil {
		return nil, err
	}
	// Trim to exactly 100 claims, the paper's sample size.
	remaining := 100
	for _, d := range docs {
		if len(d.Claims) > remaining {
			d.Claims = d.Claims[:remaining]
		}
		remaining -= len(d.Claims)
	}
	return docs, nil
}

// WikiText generates the WikiText-shaped corpus: 50 textual claims from 14
// Wikipedia-style articles (ArgMax/ArgMin claims whose value is an entity
// name rather than a number).
func WikiText(seed int64) ([]*claim.Document, error) {
	docs, err := Generate(GenConfig{
		Seed:          seed,
		Docs:          14,
		ClaimsPerDoc:  4, // trimmed to 50 below
		IncorrectRate: 0.12,
		Textual:       true,
		Domains:       []string{DomainWikipedia},
		RowsPerTable:  12, // small Wikipedia tables, within TAPEX's budget
	})
	if err != nil {
		return nil, err
	}
	remaining := 50
	for _, d := range docs {
		if len(d.Claims) > remaining {
			d.Claims = d.Claims[:remaining]
		}
		remaining -= len(d.Claims)
	}
	return docs, nil
}

// UnitConv generates the unit-conversion benchmark: 20 claims from 8
// documents over unit-bearing columns. aligned=true expresses claims in the
// data's own units; aligned=false forces unit conversions. The same seed
// yields paired documents differing only in unit treatment.
func UnitConv(seed int64, aligned bool) ([]*claim.Document, error) {
	rate := 0.0
	if !aligned {
		rate = 1.0
	}
	weights := map[nl.Kind]int{
		nl.KindLookup: 5, nl.KindSum: 3, nl.KindAvg: 3, nl.KindMax: 2, nl.KindMin: 2,
	}
	docs, err := Generate(GenConfig{
		Seed:            seed,
		Docs:            8,
		ClaimsPerDoc:    3, // trimmed to 20 below
		IncorrectRate:   0.2,
		UnitConvertRate: rate,
		KindWeights:     weights,
		Domains:         []string{"UnitConv"},
	})
	if err != nil {
		return nil, err
	}
	remaining := 20
	for _, d := range docs {
		if len(d.Claims) > remaining {
			d.Claims = d.Claims[:remaining]
		}
		remaining -= len(d.Claims)
	}
	return docs, nil
}

// JoinBench generates the join benchmark: AggChecker-style claims whose
// databases are normalized so that verification queries require joins. The
// paper decomposes three single-table schemas into 23 tables total; the
// airlines/drinks/so_survey specs normalize to 8 + 5 + 10 = 23 tables.
func JoinBench(seed int64) ([]*claim.Document, []*claim.Document, error) {
	flat, err := Generate(GenConfig{
		Seed:            seed,
		Docs:            12,
		ClaimsPerDoc:    6,
		IncorrectRate:   0.2,
		AliasRate:       0.1,
		ShortPhraseRate: 0,
		Domains:         []string{Domain538, DomainStackOverflow},
	})
	if err != nil {
		return nil, nil, err
	}
	normalized := make([]*claim.Document, 0, len(flat))
	for _, d := range flat {
		nd, err := NormalizeDocument(d)
		if err != nil {
			return nil, nil, err
		}
		normalized = append(normalized, nd)
	}
	return flat, normalized, nil
}

// NormalizeDocument rewrites a document's single-table database into a
// normalized multi-table schema (entity table plus one table per measure
// column, linked by a synthetic key) and recomputes gold queries, which now
// require joins. Claims' text is untouched: the same English claim must be
// verified against a harder schema.
func NormalizeDocument(d *claim.Document) (*claim.Document, error) {
	tabs := d.Data.Tables()
	if len(tabs) != 1 {
		return nil, fmt.Errorf("data: normalize expects a single-table database, got %d", len(tabs))
	}
	ndb, err := NormalizeTable(tabs[0], d.Data.Name+"_norm")
	if err != nil {
		return nil, err
	}
	nd := &claim.Document{
		ID:     d.ID + "-norm",
		Title:  d.Title,
		Domain: d.Domain,
		Data:   ndb,
	}
	schema := nl.SchemaFromDatabase(ndb)
	for _, c := range d.Claims {
		nc := *c
		nc.ID = c.ID + "-norm"
		// Recompute the gold query against the normalized schema by
		// re-deriving it from the flat gold query's referenced columns:
		// parse, collect columns, and rebuild via the nl layer. The flat
		// gold queries were all built by nl.BuildSQL, so reparsing the
		// claim sentence is unnecessary — rewriting FROM clauses suffices.
		ng, err := rebuildGold(c.Gold.Query, schema)
		if err != nil {
			return nil, fmt.Errorf("data: rebuild gold for %s: %w", c.ID, err)
		}
		nc.Gold.Query = ng
		nd.Claims = append(nd.Claims, &nc)
	}
	return nd, nil
}

// NormalizeTable splits a flat table into an entity table plus one table per
// non-entity column, joined through a synthetic <entity>_id key.
func NormalizeTable(t *sqldb.Table, dbName string) (*sqldb.Database, error) {
	entIdx := -1
	for i, c := range t.Columns {
		if nl.IsEntityColumn(c.Name) {
			entIdx = i
			break
		}
	}
	if entIdx < 0 {
		return nil, fmt.Errorf("data: table %q has no entity column", t.Name)
	}
	entCol := t.Columns[entIdx].Name
	key := strings.ToLower(entCol) + "_id"

	db := sqldb.NewDatabase(dbName)
	db.AddTable(keyedColumn(t, entIdx, t.Name, key))
	for ci, c := range t.Columns {
		if ci == entIdx {
			continue
		}
		db.AddTable(keyedColumn(t, ci, t.Name+"_"+strings.ToLower(c.Name), key))
	}
	return db, nil
}

// keyedColumn builds the two-column table of the synthetic key (the row's
// 1-based position) and t's column ci. Its rows are carved from one slab and
// passed to AppendRow whole, which refines the column kinds without copying.
func keyedColumn(t *sqldb.Table, ci int, name, key string) *sqldb.Table {
	tab := sqldb.NewTable(name, key, t.Columns[ci].Name)
	tab.Rows = make([][]sqldb.Value, 0, len(t.Rows))
	slab := make([]sqldb.Value, 2*len(t.Rows))
	for ri, row := range t.Rows {
		r := slab[2*ri : 2*ri+2 : 2*ri+2]
		r[0], r[1] = sqldb.Int(int64(ri+1)), row[ci]
		tab.MustAppendRow(r...)
	}
	return tab
}

// rebuildGold rewrites a gold query produced by nl.BuildSQL against a flat
// schema so it runs on the normalized schema: every referenced column keeps
// its name (normalization preserves column names), so it suffices to rebuild
// the FROM/JOIN clauses via the same join-construction path the nl layer
// uses. We do this by parsing the query, collecting column references, and
// asking nl for a query with the same SELECT surface but new FROM clauses.
func rebuildGold(flatSQL string, schema *nl.Schema) (string, error) {
	stmt, err := sqldb.Parse(flatSQL)
	if err != nil {
		return "", err
	}
	rewriteFrom(stmt, schema)
	return stmt.SQL(), nil
}

// rewriteFrom replaces the FROM clause of stmt (and recursively of its
// subqueries) with a join chain covering all columns the statement
// references, resolved against the normalized schema.
func rewriteFrom(stmt *sqldb.SelectStmt, schema *nl.Schema) {
	if cols := collectColumns(stmt); len(cols) > 0 {
		fromSQL, err := nl.FromClause(schema, cols)
		if err == nil { // on failure leave untouched; the query fails loudly
			if replace := sqldb.ParseFromClause(fromSQL); replace != nil {
				stmt.From = replace.From
				stmt.Joins = replace.Joins
			}
		}
		// Clear stale table qualifiers: columns keep their names across
		// normalization but live in different tables now.
		stripQualifiers(stmt)
	}
	for _, sub := range subqueries(stmt) {
		rewriteFrom(sub, schema)
	}
}

func collectColumns(stmt *sqldb.SelectStmt) []string {
	set := map[string]bool{}
	var out []string
	var visitExpr func(e sqldb.Expr)
	visit := func(s *sqldb.SelectStmt) {
		for _, it := range s.Items {
			visitExpr(it.Expr)
		}
		if s.Where != nil {
			visitExpr(s.Where)
		}
		for _, g := range s.GroupBy {
			visitExpr(g)
		}
		if s.Having != nil {
			visitExpr(s.Having)
		}
		for _, o := range s.OrderBy {
			visitExpr(o.Expr)
		}
	}
	visitExpr = func(e sqldb.Expr) {
		switch v := e.(type) {
		case *sqldb.ColumnExpr:
			lower := strings.ToLower(v.Name)
			if !set[lower] {
				set[lower] = true
				out = append(out, v.Name)
			}
		case *sqldb.UnaryExpr:
			visitExpr(v.Expr)
		case *sqldb.BinaryExpr:
			visitExpr(v.Left)
			visitExpr(v.Right)
		case *sqldb.BetweenExpr:
			visitExpr(v.Expr)
			visitExpr(v.Lo)
			visitExpr(v.Hi)
		case *sqldb.InExpr:
			visitExpr(v.Expr)
			for _, it := range v.List {
				visitExpr(it)
			}
		case *sqldb.IsNullExpr:
			visitExpr(v.Expr)
		case *sqldb.FuncExpr:
			for _, a := range v.Args {
				visitExpr(a)
			}
		case *sqldb.CastExpr:
			visitExpr(v.Expr)
		case *sqldb.CaseExpr:
			for _, w := range v.Whens {
				visitExpr(w.Cond)
				visitExpr(w.Then)
			}
			if v.Else != nil {
				visitExpr(v.Else)
			}
		}
		// Subqueries are handled by their own rewriteFrom pass.
	}
	visit(stmt)
	return out
}

func subqueries(stmt *sqldb.SelectStmt) []*sqldb.SelectStmt {
	var out []*sqldb.SelectStmt
	var visitExpr func(e sqldb.Expr)
	visitExpr = func(e sqldb.Expr) {
		switch v := e.(type) {
		case *sqldb.SubqueryExpr:
			out = append(out, v.Stmt)
		case *sqldb.ExistsExpr:
			out = append(out, v.Stmt)
		case *sqldb.InExpr:
			visitExpr(v.Expr)
			if v.Sub != nil {
				out = append(out, v.Sub)
			}
		case *sqldb.UnaryExpr:
			visitExpr(v.Expr)
		case *sqldb.BinaryExpr:
			visitExpr(v.Left)
			visitExpr(v.Right)
		case *sqldb.BetweenExpr:
			visitExpr(v.Expr)
			visitExpr(v.Lo)
			visitExpr(v.Hi)
		case *sqldb.FuncExpr:
			for _, a := range v.Args {
				visitExpr(a)
			}
		case *sqldb.CastExpr:
			visitExpr(v.Expr)
		case *sqldb.CaseExpr:
			for _, w := range v.Whens {
				visitExpr(w.Cond)
				visitExpr(w.Then)
			}
			if v.Else != nil {
				visitExpr(v.Else)
			}
		case *sqldb.IsNullExpr:
			visitExpr(v.Expr)
		}
	}
	for _, it := range stmt.Items {
		visitExpr(it.Expr)
	}
	if stmt.Where != nil {
		visitExpr(stmt.Where)
	}
	if stmt.Having != nil {
		visitExpr(stmt.Having)
	}
	return out
}

func stripQualifiers(stmt *sqldb.SelectStmt) {
	var visitExpr func(e sqldb.Expr)
	visitExpr = func(e sqldb.Expr) {
		switch v := e.(type) {
		case *sqldb.ColumnExpr:
			v.Table = ""
		case *sqldb.UnaryExpr:
			visitExpr(v.Expr)
		case *sqldb.BinaryExpr:
			visitExpr(v.Left)
			visitExpr(v.Right)
		case *sqldb.BetweenExpr:
			visitExpr(v.Expr)
			visitExpr(v.Lo)
			visitExpr(v.Hi)
		case *sqldb.InExpr:
			visitExpr(v.Expr)
			for _, it := range v.List {
				visitExpr(it)
			}
		case *sqldb.IsNullExpr:
			visitExpr(v.Expr)
		case *sqldb.FuncExpr:
			for _, a := range v.Args {
				visitExpr(a)
			}
		case *sqldb.CastExpr:
			visitExpr(v.Expr)
		case *sqldb.CaseExpr:
			for _, w := range v.Whens {
				visitExpr(w.Cond)
				visitExpr(w.Then)
			}
			if v.Else != nil {
				visitExpr(v.Else)
			}
		}
	}
	for _, it := range stmt.Items {
		visitExpr(it.Expr)
	}
	if stmt.Where != nil {
		visitExpr(stmt.Where)
	}
	for _, g := range stmt.GroupBy {
		visitExpr(g)
	}
	if stmt.Having != nil {
		visitExpr(stmt.Having)
	}
	for _, o := range stmt.OrderBy {
		visitExpr(o.Expr)
	}
}

// seededRNG is a convenience for tests and examples.
func seededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
