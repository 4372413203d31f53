package exp

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/sqldb"
)

// sqlbench.go measures what the vectorized columnar executor and the plan
// cache buy over the row-at-a-time oracle on JoinBench-shaped workloads:
// equi-join + aggregation, pushdown-eligible filtered aggregation, and
// outer-join anti-semi patterns, at several cardinalities. Every timed cell
// first cross-checks that both engines return bit-identical results — a
// benchmark over diverging engines would be meaningless.

// SQLBenchRow is one (cardinality, query) cell of the engine comparison.
type SQLBenchRow struct {
	Cardinality int    // rows in the fact table
	Query       string // workload label
	RowNS       int64  // row oracle, prepared statement, ns/exec
	VecColdNS   int64  // vectorized, plan compiled every exec (cold cache)
	VecWarmNS   int64  // vectorized through the plan cache, all hits
	SpeedupCold float64
	SpeedupWarm float64
	Match       bool
}

// SQLBenchResult backs EXPERIMENTS.md's vectorized-executor table and
// BENCH_sql.json (cedar-bench -sqlbench-json).
type SQLBenchResult struct {
	Rows []SQLBenchRow
}

// sqlBenchDB builds a fact/dim pair shaped like JoinBench's normalized
// output: an n-row fact table with a skewed, partially NULL join key and a
// dimension table with n/8 unique keys.
func sqlBenchDB(seed int64, n int) *sqldb.Database {
	rng := rand.New(rand.NewSource(seed))
	db := sqldb.NewDatabase("sqlbench")
	dimN := n / 8
	if dimN < 4 {
		dimN = 4
	}
	dim := sqldb.NewTable("dim", "k", "name", "w")
	for i := 0; i < dimN; i++ {
		dim.MustAppendRow(sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("d%03d", i%97)), sqldb.Float(rng.Float64()*100))
	}
	db.AddTable(dim)
	fact := sqldb.NewTable("fact", "id", "k", "v")
	for i := 0; i < n; i++ {
		k := sqldb.Value(sqldb.Int(int64(rng.Intn(dimN + dimN/4)))) // ~20% dangling keys
		if rng.Intn(50) == 0 {
			k = sqldb.Null()
		}
		fact.MustAppendRow(sqldb.Int(int64(i)), k, sqldb.Float(rng.Float64()*1000-200))
	}
	db.AddTable(fact)
	return db
}

// sqlBenchQueries are the timed workloads. join-agg is the acceptance
// workload: hash equi-join into grouped aggregation.
var sqlBenchQueries = []struct{ name, sql string }{
	{"join-agg", `SELECT d.name, COUNT(*), SUM(f.v) FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.name ORDER BY 2 DESC, 1`},
	{"filter-agg", `SELECT COUNT(*), SUM(v), AVG(v) FROM fact WHERE k < 40 AND v > 0`},
	{"left-join", `SELECT COUNT(*) FROM fact f LEFT JOIN dim d ON f.k = d.k WHERE d.w IS NULL`},
}

// timeExec reports the mean ns/exec of f, calibrating repetitions so each
// cell runs long enough to be stable without dominating the experiment.
func timeExec(f func() error) (int64, error) {
	start := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	once := time.Since(start)
	reps := int(80 * time.Millisecond / (once + 1))
	if reps < 3 {
		reps = 3
	}
	if reps > 500 {
		reps = 500
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(reps), nil
}

// SQLBench runs the engine comparison. workers is accepted for registry
// symmetry; the measurement is deliberately single-threaded (concurrent
// correctness is the test suite's job, not the benchmark's).
func SQLBench(seed int64, _ int) (*SQLBenchResult, error) {
	res := &SQLBenchResult{}
	cards := []int{1000, 4000, 16000}
	for _, n := range cards {
		db := sqlBenchDB(seed, n)
		for _, q := range sqlBenchQueries {
			stmt, err := sqldb.Parse(q.sql)
			if err != nil {
				return nil, fmt.Errorf("sqlbench %s: %w", q.name, err)
			}
			rowRes, err := sqldb.Exec(db, stmt)
			if err != nil {
				return nil, fmt.Errorf("sqlbench %s (row): %w", q.name, err)
			}
			vecRes, err := sqldb.ExecVec(db, stmt)
			if err != nil {
				return nil, fmt.Errorf("sqlbench %s (vec): %w", q.name, err)
			}
			qRes, err := sqldb.Query(db, q.sql) // also warms the plan cache
			if err != nil {
				return nil, fmt.Errorf("sqlbench %s (query): %w", q.name, err)
			}
			match := rowRes.String() == vecRes.String() && rowRes.String() == qRes.String()

			rowNS, err := timeExec(func() error { _, err := sqldb.Exec(db, stmt); return err })
			if err != nil {
				return nil, err
			}
			coldNS, err := timeExec(func() error { _, err := sqldb.ExecVec(db, stmt); return err })
			if err != nil {
				return nil, err
			}
			warmNS, err := timeExec(func() error { _, err := sqldb.Query(db, q.sql); return err })
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, SQLBenchRow{
				Cardinality: n, Query: q.name,
				RowNS: rowNS, VecColdNS: coldNS, VecWarmNS: warmNS,
				SpeedupCold: float64(rowNS) / float64(coldNS),
				SpeedupWarm: float64(rowNS) / float64(warmNS),
				Match:       match,
			})
		}
	}
	return res, nil
}

// Render prints the engine comparison.
func (r *SQLBenchResult) Render() string {
	var b strings.Builder
	b.WriteString("Vectorized executor vs row oracle on JoinBench-shaped tables (DESIGN.md §12).\n")
	fmt.Fprintf(&b, "%-7s %-11s %12s %12s %12s %8s %8s %6s\n",
		"Rows", "Query", "Row ns", "VecCold ns", "VecWarm ns", "xCold", "xWarm", "Match")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7d %-11s %12d %12d %12d %7.1fx %7.1fx %6v\n",
			row.Cardinality, row.Query, row.RowNS, row.VecColdNS, row.VecWarmNS,
			row.SpeedupCold, row.SpeedupWarm, row.Match)
	}
	return b.String()
}

// CSV renders one row per comparison cell.
func (r *SQLBenchResult) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Cardinality), row.Query,
			fmt.Sprintf("%d", row.RowNS), fmt.Sprintf("%d", row.VecColdNS), fmt.Sprintf("%d", row.VecWarmNS),
			f(row.SpeedupCold), f(row.SpeedupWarm), fmt.Sprintf("%v", row.Match),
		})
	}
	return csvString([]string{"cardinality", "query",
		"row_ns", "vec_cold_ns", "vec_warm_ns", "speedup_cold", "speedup_warm", "match"}, rows)
}

// JSON renders the result for BENCH_sql.json (cedar-bench -sqlbench-json).
func (r *SQLBenchResult) JSON() ([]byte, error) {
	type row struct {
		Cardinality int     `json:"cardinality"`
		Query       string  `json:"query"`
		RowNS       int64   `json:"row_ns"`
		VecColdNS   int64   `json:"vec_cold_ns"`
		VecWarmNS   int64   `json:"vec_warm_ns"`
		SpeedupCold float64 `json:"speedup_cold"`
		SpeedupWarm float64 `json:"speedup_warm"`
		Match       bool    `json:"match"`
	}
	out := struct {
		Experiment string `json:"experiment"`
		Rows       []row  `json:"rows"`
	}{Experiment: "sqlbench"}
	for _, rw := range r.Rows {
		out.Rows = append(out.Rows, row{
			Cardinality: rw.Cardinality, Query: rw.Query,
			RowNS: rw.RowNS, VecColdNS: rw.VecColdNS, VecWarmNS: rw.VecWarmNS,
			SpeedupCold: rw.SpeedupCold, SpeedupWarm: rw.SpeedupWarm, Match: rw.Match,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
