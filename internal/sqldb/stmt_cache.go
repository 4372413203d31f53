package sqldb

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// stmt_cache.go is the parsed-plan / prepared-statement cache. Each catalog
// (catalog.go) caches its own plans, keyed by the query text, so a repeated
// query skips the lexer, the parser and the planner entirely; two spellings
// of one statement are two entries, whose plans are equal because
// compilation is deterministic. A plan is compiled against the catalog that
// caches it and binds that catalog's table images, and a catalog never
// changes, so no plan can go stale: a query loads the catalog once and runs
// the plan it finds there, its subqueries' plans included. A new catalog
// carries over every plan that looked up none of the tables it changed, so
// churn on unrelated tables leaves their plans cached. All operations are
// safe under concurrent verify workers.

// planCacheCap bounds a catalog's cache; reaching it flushes wholesale (the
// verify workloads cycle through a small set of template-generated queries,
// so an LRU would buy nothing over the simple scheme).
const planCacheCap = 512

// planEntry is one cached statement: its plan and the lowercased name of
// every table its compilation looked up, found or not, subqueries included.
type planEntry struct {
	tables []string
	vp     *vecPlan
}

// planStats counts a database's plan lookups and runs and the access paths
// those runs took, over every catalog the database has published.
type planStats struct {
	hits, misses, runs atomic.Uint64

	// Access paths taken by vectorized runs (access.go).
	indexBuilds, indexProbes, foldHits, indexJoins atomic.Uint64
}

// exec runs sql's plan in d's current catalog, appending its output cells to
// dst (see vecPlan.run).
func (d *Database) exec(sql string, dst []Value) (*vecPlan, output, error) {
	cat := d.cat.Load()
	p, err := cat.plan(sql)
	if err != nil {
		return nil, output{}, err
	}
	out, err := p.run(cat, nil, dst)
	d.stats.runs.Add(1)
	return p, out, err
}

// plan returns sql's plan in c, parsing and compiling it on a miss. Parse
// errors are returned verbatim and never cached.
func (c *catalog) plan(sql string) (*vecPlan, error) {
	c.mu.Lock()
	e, ok := c.plans[sql]
	c.mu.Unlock()
	if ok {
		c.stats.hits.Add(1)
		return e.vp, nil
	}
	c.stats.misses.Add(1)

	// A miss keys and parses a copy: the text is often a substring of a
	// model completion, which the key and the parsed identifiers would
	// otherwise keep alive as long as the entry.
	sql = strings.Clone(sql)
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	vp, tables := compilePlan(c, stmt)
	c.mu.Lock()
	if c.plans == nil || len(c.plans) >= planCacheCap {
		c.plans = make(map[string]planEntry)
	}
	c.plans[sql] = planEntry{tables: tables, vp: vp}
	c.mu.Unlock()
	return vp, nil
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
// and the current catalog's entry count (cached query texts).
func (d *Database) PlanCacheStats() PlanCacheStats {
	c, st := d.cat.Load(), &d.stats
	c.mu.Lock()
	entries := len(c.plans)
	c.mu.Unlock()
	return PlanCacheStats{
		Hits: st.hits.Load(), Misses: st.misses.Load(), Entries: entries,
		VecRuns:     st.runs.Load(),
		IndexBuilds: st.indexBuilds.Load(), IndexProbes: st.indexProbes.Load(),
		FoldHits: st.foldHits.Load(), IndexJoins: st.indexJoins.Load(),
	}
}

// InvalidatePlans drops all cached plans of the current catalog, forcing the
// next execution of each query to re-parse and re-compile. Benchmarks use it
// to measure the cold path; AddTable/RemoveTable instead drop only the
// entries that looked up the changed table.
func (d *Database) InvalidatePlans() {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	c := d.cat.Load()
	c.mu.Lock()
	c.plans = nil
	c.mu.Unlock()
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
	cat := db.cat.Load()
	p, _ := compilePlan(cat, stmt)
	return p.explain(cat, stmt), nil
}

func (p *vecPlan) explain(cat *catalog, stmt *SelectStmt) string {
	var b strings.Builder
	b.WriteString("vectorized\n")
	for i, s := range p.scans {
		if i == 0 {
			fmt.Fprintf(&b, "scan %s pushed=%d eq=%d\n", stmt.From.Name, len(s.pushed), len(s.eq))
			continue
		}
		j := p.joins[i-1]
		alg := "nested-loop"
		if j.lkey != nil {
			alg = "hash"
		}
		fmt.Fprintf(&b, "%s join (%s) %s pushed=%d eq=%d", strings.ToLower(j.kind), alg, stmt.Joins[i-1].Table.Name, len(s.pushed), len(s.eq))
		if sides := p.indexJoinSides(i - 1); sides != "" {
			fmt.Fprintf(&b, " index-join=%s", sides)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "residual=%d aggregated=%v\n", len(p.residual), p.aggregated)
	if p.fail != nil {
		fmt.Fprintf(&b, "fails: %v\n", p.fail(cat))
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
	if j.lkey == nil {
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
