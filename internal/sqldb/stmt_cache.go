package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// stmt_cache.go is the parsed-plan / prepared-statement cache. Plans are
// keyed twice: by the raw query text (the fast path — a repeated query skips
// the lexer and parser entirely) and by the normalized rendering of the
// parsed statement (stmt.SQL()), so differently spelled but structurally
// identical queries share one compiled plan. Entries record the tables they
// reference (including subqueries) and the combined change stamp of those
// tables at compile time; AddTable/RemoveTable drop only the entries that
// reference the changed table, and a stamp mismatch at lookup or execution
// time forces recompilation, so no query ever runs against a plan bound to
// a previous schema while catalog churn on unrelated tables leaves plans
// cached. All operations are safe under concurrent verify workers.

// planCacheCap bounds the cache; reaching it flushes wholesale (the verify
// workloads cycle through a small set of template-generated queries, so an
// LRU would buy nothing over the simple scheme).
const planCacheCap = 512

// planEntry is one cached prepared statement: the parsed AST, its normalized
// text, the (lowercased, sorted) tables the statement references, the
// combined change stamp of those tables at compile time, and the compiled
// vectorized plan (nil when the statement is row-only).
type planEntry struct {
	stmt    *SelectStmt
	norm    string
	tables  []string
	version uint64
	vp      *vecPlan
}

// exec runs the entry: the vectorized plan when present, with unconditional
// fallback to the row-engine oracle on any vectorized-execution error. The
// fallback guarantees callers observe exactly the row engine's results and
// error surface regardless of what the vectorized engine covers; the
// counters say which of the three ways each execution went.
func (pe *planEntry) exec(db *Database) (*Result, error) {
	c := &db.plans
	if pe.vp == nil {
		c.rowOnly.Add(1)
	} else if res, err := pe.vp.run(db); err == nil {
		c.vecRuns.Add(1)
		return res, nil
	} else {
		c.fallbacks.Add(1)
	}
	return Exec(db, pe.stmt)
}

// planCache caches planEntries per database.
type planCache struct {
	mu     sync.Mutex
	byRaw  map[string]*planEntry
	byNorm map[string]*planEntry
	hits   uint64
	misses uint64

	vecRuns, fallbacks, rowOnly atomic.Uint64 // execution outcomes (planEntry.exec)

	// Access paths taken by vectorized runs (access.go).
	indexBuilds, indexProbes, foldHits, indexJoins atomic.Uint64
}

// lookup returns a prepared entry for sql, parsing and compiling on miss.
// Parse errors are returned verbatim and never cached. An entry is valid
// while the combined change stamp of its referenced tables still equals the
// stamp it was compiled at.
func (c *planCache) lookup(db *Database, sql string) (*planEntry, error) {
	c.mu.Lock()
	if e, ok := c.byRaw[sql]; ok && e.version == db.stampFor(e.tables) {
		c.hits++
		c.mu.Unlock()
		return e, nil
	}
	c.mu.Unlock()

	// A miss keys and parses a copy: the text is often a substring of a
	// model completion, which the raw key and the parsed identifiers would
	// otherwise keep alive as long as the entry.
	sql = strings.Clone(sql)
	stmt, err := Parse(sql)
	if err != nil {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return nil, err
	}
	norm := stmt.SQL()

	c.mu.Lock()
	if e, ok := c.byNorm[norm]; ok && e.version == db.stampFor(e.tables) {
		// A new raw spelling of an already-compiled plan: register the alias
		// and share the entry.
		c.hits++
		c.ensureMaps()
		if len(c.byRaw) < planCacheCap {
			c.byRaw[sql] = e
		}
		c.mu.Unlock()
		return e, nil
	}
	c.misses++
	c.mu.Unlock()

	tables := tablesOf(stmt)
	stamp := db.stampFor(tables)
	e := &planEntry{stmt: stmt, norm: norm, tables: tables, version: stamp, vp: compilePlan(db, stmt)}
	if db.stampFor(tables) != stamp {
		// The catalog changed between the stamp read and compilation; serve
		// the entry uncached. Its execution falls back to the row engine via
		// the stale-plan guard, and the next lookup recompiles. The full
		// table set is compared (not vp.version, which stamps only the scan
		// tables) so a racing change to a subquery table is caught too.
		return e, nil
	}
	c.mu.Lock()
	if len(c.byRaw) >= planCacheCap || len(c.byNorm) >= planCacheCap {
		c.flushLocked()
	}
	c.ensureMaps()
	c.byRaw[sql] = e
	c.byNorm[norm] = e
	c.mu.Unlock()
	return e, nil
}

func (c *planCache) ensureMaps() {
	if c.byRaw == nil {
		c.byRaw = make(map[string]*planEntry)
		c.byNorm = make(map[string]*planEntry)
	}
}

// flush drops every cached plan (cap overflow, explicit invalidation).
func (c *planCache) flush() {
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
}

func (c *planCache) flushLocked() {
	c.byRaw = nil
	c.byNorm = nil
}

// invalidate drops the cached plans that reference the given (lowercased)
// table, leaving every other entry in place. AddTable/RemoveTable call it so
// catalog churn — e.g. dataset ingestion — does not evict the hot plans of
// unrelated tables.
func (c *planCache) invalidate(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for raw, e := range c.byRaw {
		if e.references(table) {
			delete(c.byRaw, raw)
		}
	}
	for norm, e := range c.byNorm {
		if e.references(table) {
			delete(c.byNorm, norm)
		}
	}
}

// references reports whether the entry's statement mentions the table.
// Entry table lists are sorted, but they are short enough that a linear scan
// beats a binary search in practice.
func (pe *planEntry) references(table string) bool {
	for _, t := range pe.tables {
		if t == table {
			return true
		}
	}
	return false
}

// tablesOf collects every table name a statement references — FROM, joins,
// and subqueries anywhere in the expression tree — lowercased, deduplicated,
// and sorted. The plan cache uses the set to scope invalidation.
func tablesOf(stmt *SelectStmt) []string {
	set := make(map[string]bool)
	collectStmtTables(stmt, set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func collectStmtTables(stmt *SelectStmt, set map[string]bool) {
	if stmt == nil {
		return
	}
	if stmt.From != nil {
		set[strings.ToLower(stmt.From.Name)] = true
	}
	for _, j := range stmt.Joins {
		set[strings.ToLower(j.Table.Name)] = true
		collectExprTables(j.On, set)
	}
	for _, it := range stmt.Items {
		collectExprTables(it.Expr, set)
	}
	collectExprTables(stmt.Where, set)
	for _, e := range stmt.GroupBy {
		collectExprTables(e, set)
	}
	collectExprTables(stmt.Having, set)
	for _, o := range stmt.OrderBy {
		collectExprTables(o.Expr, set)
	}
}

func collectExprTables(e Expr, set map[string]bool) {
	switch x := e.(type) {
	case *UnaryExpr:
		collectExprTables(x.Expr, set)
	case *BinaryExpr:
		collectExprTables(x.Left, set)
		collectExprTables(x.Right, set)
	case *BetweenExpr:
		collectExprTables(x.Expr, set)
		collectExprTables(x.Lo, set)
		collectExprTables(x.Hi, set)
	case *InExpr:
		collectExprTables(x.Expr, set)
		for _, it := range x.List {
			collectExprTables(it, set)
		}
		collectStmtTables(x.Sub, set)
	case *IsNullExpr:
		collectExprTables(x.Expr, set)
	case *FuncExpr:
		for _, a := range x.Args {
			collectExprTables(a, set)
		}
	case *CastExpr:
		collectExprTables(x.Expr, set)
	case *CaseExpr:
		for _, w := range x.Whens {
			collectExprTables(w.Cond, set)
			collectExprTables(w.Then, set)
		}
		collectExprTables(x.Else, set)
	case *SubqueryExpr:
		collectStmtTables(x.Stmt, set)
	case *ExistsExpr:
		collectStmtTables(x.Stmt, set)
	}
}

// PlanCacheStats is a snapshot of a database's plan-cache counters. Every
// Query execution is counted once in exactly one of VecRuns, RowFallbacks and
// RowOnlyPlans.
type PlanCacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int

	VecRuns      uint64 // executions the vectorized engine answered
	RowFallbacks uint64 // executions whose vectorized run errored or declined (stale plan or image), answered by the row engine
	RowOnlyPlans uint64 // executions of statements that have no vectorized plan

	// Access paths on column images of more than 1,024 rows. All four stay
	// zero on a database of smaller tables.
	IndexBuilds uint64 // equality indexes built, at most one per image column
	IndexProbes uint64 // pushed "column = literal" conjuncts answered from an index instead of a scan
	FoldHits    uint64 // unfiltered aggregates answered from a column's memoised fold
	IndexJoins  uint64 // hash joins resolved by walking one side's keys through the other's index
}

// PlanCacheStats returns cumulative hit/miss and execution-outcome counters
// and the current entry count (distinct normalized plans).
func (d *Database) PlanCacheStats() PlanCacheStats {
	c := &d.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits: c.hits, Misses: c.misses, Entries: len(c.byNorm),
		VecRuns: c.vecRuns.Load(), RowFallbacks: c.fallbacks.Load(), RowOnlyPlans: c.rowOnly.Load(),
		IndexBuilds: c.indexBuilds.Load(), IndexProbes: c.indexProbes.Load(),
		FoldHits: c.foldHits.Load(), IndexJoins: c.indexJoins.Load(),
	}
}

// InvalidatePlans drops all cached plans, forcing the next execution of each
// query to re-parse and re-compile. Benchmarks use it to measure the cold
// path; AddTable/RemoveTable instead invalidate only the entries referencing
// the changed table.
func (d *Database) InvalidatePlans() {
	d.plans.flush()
}

// Normalize parses sql and renders it back to canonical text — the plan
// cache's sharing key. Two queries normalize equal iff they parse to
// structurally identical statements.
func Normalize(sql string) (string, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return "", err
	}
	return stmt.SQL(), nil
}

// ExplainQuery describes how the vectorized engine would execute sql:
// per-scan pushed-down predicate counts and how many of them an equality
// index can answer (eq), the join algorithm per join and which side's index
// an index join may walk, residual filter count, and the pipeline kind. The
// access paths named are the plan's candidates: each is taken only on an
// image of more than 1,024 rows whose column can be indexed. Statements
// outside the vectorizable surface report "row-only". Tests use it to assert
// that predicate pushdown actually occurs.
func ExplainQuery(db *Database, sql string) (string, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return "", err
	}
	p := compilePlan(db, stmt)
	if p == nil {
		return "row-only\n", nil
	}
	return p.explain(), nil
}

func (p *vecPlan) explain() string {
	var b strings.Builder
	b.WriteString("vectorized\n")
	for i, s := range p.scans {
		if i == 0 {
			fmt.Fprintf(&b, "scan %s pushed=%d eq=%d\n", s.table, len(s.pushed), len(s.eq))
			continue
		}
		j := p.joins[i-1]
		alg := "nested-loop"
		if j.hash {
			alg = "hash"
		}
		fmt.Fprintf(&b, "%s join (%s) %s pushed=%d eq=%d", strings.ToLower(j.kind), alg, s.table, len(s.pushed), len(s.eq))
		if sides := p.indexJoinSides(i - 1); sides != "" {
			fmt.Fprintf(&b, " index-join=%s", sides)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "residual=%d aggregated=%v\n", len(p.residual), p.aggregated)
	return b.String()
}

// indexJoinSides names the sides of join ji whose equality index an index
// join may walk: a side qualifies while it can still be a whole image column
// when the join runs, which is to say an unfiltered scan (and, for the left
// side, the first one, of a join that pads nothing).
func (p *vecPlan) indexJoinSides(ji int) string {
	j := p.joins[ji]
	if !j.hash {
		return ""
	}
	var sides []string
	if ji == 0 && j.kind != "LEFT" && len(p.scans[0].pushed) == 0 {
		sides = append(sides, "left")
	}
	if len(p.scans[ji+1].pushed) == 0 {
		sides = append(sides, "right")
	}
	return strings.Join(sides, ",")
}
