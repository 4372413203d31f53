package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// stmt_cache.go is the parsed-plan / prepared-statement cache. Plans are
// keyed by the query text, so a repeated query skips the lexer, the parser
// and the planner entirely; two spellings of one statement are two entries,
// whose plans are equal because compilation is deterministic. Entries record
// the tables they reference (including subqueries) and the combined change
// stamp of those tables at compile time; AddTable/RemoveTable drop only the
// entries that reference the changed table, and a stamp mismatch at lookup
// or execution time forces recompilation, so no query ever runs against a
// plan bound to a previous schema while catalog churn on unrelated tables
// leaves plans cached. All operations are safe under concurrent verify
// workers.

// planCacheCap bounds the cache; reaching it flushes wholesale (the verify
// workloads cycle through a small set of template-generated queries, so an
// LRU would buy nothing over the simple scheme).
const planCacheCap = 512

// planEntry is one cached prepared statement: the (lowercased, sorted)
// tables the statement references, the combined change stamp of those
// tables at compile time, and the compiled plan.
type planEntry struct {
	tables  []string
	version uint64
	vp      *vecPlan
}

// exec runs sql's plan, appending its output cells to dst (see vecPlan.run).
// A plan the catalog changed under is looked up again, which compiles it
// against the live catalog, and rerun.
func (c *planCache) exec(db *Database, sql string, dst []Value) (*vecPlan, output, error) {
	for {
		pe, err := c.lookup(db, sql)
		if err != nil {
			return nil, output{}, err
		}
		out, err := pe.vp.run(db, nil, dst)
		if !errors.Is(err, errPlanStale) {
			c.runs.Add(1)
			return pe.vp, out, err
		}
	}
}

// planCache caches planEntries per database.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry // by query text
	hits    uint64
	misses  uint64

	runs atomic.Uint64 // executions (planCache.exec)

	// Access paths taken by vectorized runs (access.go).
	indexBuilds, indexProbes, foldHits, indexJoins atomic.Uint64
}

// lookup returns a prepared entry for sql, parsing and compiling on miss.
// Parse errors are returned verbatim and never cached. An entry is valid
// while the combined change stamp of its referenced tables still equals the
// stamp it was compiled at.
func (c *planCache) lookup(db *Database, sql string) (*planEntry, error) {
	c.mu.Lock()
	if e, ok := c.entries[sql]; ok && e.version == db.stampFor(e.tables) {
		c.hits++
		c.mu.Unlock()
		return e, nil
	}
	c.misses++
	c.mu.Unlock()

	// A miss keys and parses a copy: the text is often a substring of a
	// model completion, which the key and the parsed identifiers would
	// otherwise keep alive as long as the entry.
	sql = strings.Clone(sql)
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	tables := tablesOf(stmt)
	stamp := db.stampFor(tables)
	e := &planEntry{tables: tables, version: stamp, vp: compilePlan(db, stmt)}
	if db.stampFor(tables) != stamp {
		// The catalog changed between the stamp read and compilation; serve
		// the entry uncached. If the plan is stale its run says so and exec
		// looks it up again. The full table set is compared (not vp.version,
		// which stamps only the FROM tables) so a racing change to a
		// subquery table is caught too.
		return e, nil
	}
	c.mu.Lock()
	if c.entries == nil || len(c.entries) >= planCacheCap {
		c.entries = make(map[string]*planEntry)
	}
	c.entries[sql] = e
	c.mu.Unlock()
	return e, nil
}

// flush drops every cached plan (explicit invalidation).
func (c *planCache) flush() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

// invalidate drops the cached plans that reference the given (lowercased)
// table, leaving every other entry in place. AddTable/RemoveTable call it so
// catalog churn — e.g. dataset ingestion — does not evict the hot plans of
// unrelated tables.
func (c *planCache) invalidate(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for sql, e := range c.entries {
		if e.references(table) {
			delete(c.entries, sql)
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

// PlanCacheStats is a snapshot of a database's plan-cache counters.
type PlanCacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int

	VecRuns uint64 // Query and QueryScalar executions, each answered by its vectorized plan

	// Access paths on column images of more than 1,024 rows. All four stay
	// zero on a database of smaller tables.
	IndexBuilds uint64 // equality indexes built, at most one per image column
	IndexProbes uint64 // pushed "column = literal" conjuncts answered from an index instead of a scan
	FoldHits    uint64 // unfiltered aggregates answered from a column's memoised fold
	IndexJoins  uint64 // equi-joins matched through a table image's cached index on either side
}

// PlanCacheStats returns cumulative hit/miss and execution-outcome counters
// and the current entry count (cached query texts).
func (d *Database) PlanCacheStats() PlanCacheStats {
	c := &d.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits: c.hits, Misses: c.misses, Entries: len(c.entries),
		VecRuns:     c.runs.Load(),
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

// ExplainQuery describes how the vectorized engine would execute sql:
// per-scan pushed-down predicate counts and how many of them an equality
// index can answer (eq), the join algorithm per join and which side's cached
// index a hash join may use, residual filter count, the pipeline kind, and the
// error a plan ends with when the row engine would refuse its FROM clause or
// its select list. The access paths named are the plan's candidates: each is
// taken only on an image of more than 1,024 rows whose column can be indexed.
// Tests use it to assert that predicate pushdown actually occurs.
func ExplainQuery(db *Database, sql string) (string, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return "", err
	}
	return compilePlan(db, stmt).explain(db), nil
}

func (p *vecPlan) explain(db *Database) string {
	var b strings.Builder
	b.WriteString("vectorized\n")
	for i, s := range p.scans {
		if i == 0 {
			fmt.Fprintf(&b, "scan %s pushed=%d eq=%d\n", p.names[i], len(s.pushed), len(s.eq))
			continue
		}
		j := p.joins[i-1]
		alg := "nested-loop"
		if j.hash {
			alg = "hash"
		}
		fmt.Fprintf(&b, "%s join (%s) %s pushed=%d eq=%d", strings.ToLower(j.kind), alg, p.names[i], len(s.pushed), len(s.eq))
		if sides := p.indexJoinSides(i - 1); sides != "" {
			fmt.Fprintf(&b, " index-join=%s", sides)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "residual=%d aggregated=%v\n", len(p.residual), p.aggregated)
	if p.fail != nil {
		fmt.Fprintf(&b, "fails: %v\n", p.fail(db))
	}
	return b.String()
}

// indexJoinSides names the sides of hash join ji whose image index the join
// may use, the right side's to probe and the left side's to walk: a side
// qualifies while it can still be a whole image column when the join runs,
// which is to say an unfiltered scan (and, for the left side, the first one,
// of a join that pads nothing). The right side's index wins when it has one.
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
