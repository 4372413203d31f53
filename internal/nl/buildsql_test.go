package nl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/textutil"
)

// BuildSQL as it was before it wrote its query in one allocation of the
// exact size: fmt.Sprintf per clause, every identifier quoted into a string
// of its own, the FROM clause rendered before the query. Kept as the oracle
// of TestDifferentialBuildSQL.

func (s *Spec) referenceConverted(expr string) string {
	if s.ConvFactor == 0 || s.ConvFactor == 1 {
		return expr
	}
	return fmt.Sprintf("%s * %s", expr, textutil.FormatNumber(s.ConvFactor))
}

func (s *Spec) referenceFilterLiteral() string {
	if s.FilterIsText {
		return referenceQuoteText(s.FilterVal)
	}
	return s.FilterVal
}

func referenceQuoteText(v string) string {
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

func referenceBuildSQL(schema *Schema, s *Spec) (string, error) {
	switch s.Kind {
	case KindLookup:
		from, err := FromClause(schema, []string{s.Column, s.EntityCol})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(`SELECT %s FROM %s WHERE %s = %s`,
			s.referenceConverted(q(s.Column)), from, q(s.EntityCol), referenceQuoteText(s.EntityVal)), nil
	case KindCountAll:
		if s.EntityCol == "" {
			return "", fmt.Errorf("%w: CountAll needs an entity column", ErrNoColumn)
		}
		from, err := FromClause(schema, []string{s.EntityCol})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(`SELECT COUNT(%s) FROM %s`, q(s.EntityCol), from), nil
	case KindCount:
		from, err := FromClause(schema, []string{s.FilterCol})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE %s = %s`,
			from, q(s.FilterCol), s.referenceFilterLiteral()), nil
	case KindSum, KindAvg, KindMin, KindMax:
		agg := map[Kind]string{KindSum: "SUM", KindAvg: "AVG", KindMin: "MIN", KindMax: "MAX"}[s.Kind]
		cols := []string{s.Column}
		if s.FilterCol != "" {
			cols = append(cols, s.FilterCol)
		}
		from, err := FromClause(schema, cols)
		if err != nil {
			return "", err
		}
		where := ""
		if s.FilterCol != "" {
			where = fmt.Sprintf(" WHERE %s = %s", q(s.FilterCol), s.referenceFilterLiteral())
		}
		return fmt.Sprintf(`SELECT %s FROM %s%s`,
			s.referenceConverted(fmt.Sprintf("%s(%s)", agg, q(s.Column))), from, where), nil
	case KindDiff:
		from, err := FromClause(schema, []string{s.Column})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(`SELECT %s FROM %s`,
			s.referenceConverted(fmt.Sprintf("MAX(%s) - MIN(%s)", q(s.Column), q(s.Column))), from), nil
	case KindArgMax, KindArgMin:
		agg := "MAX"
		if s.Kind == KindArgMin {
			agg = "MIN"
		}
		from, err := FromClause(schema, []string{s.Column, s.EntityCol})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(`SELECT %s FROM %s WHERE %s = (SELECT %s(%s) FROM %s)`,
			q(s.EntityCol), from, q(s.Column), agg, q(s.Column), from), nil
	case KindMode:
		from, err := FromClause(schema, []string{s.Column})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(`SELECT %s FROM %s GROUP BY %s ORDER BY COUNT(*) DESC LIMIT 1`,
			q(s.Column), from, q(s.Column)), nil
	case KindPercent:
		cols := []string{s.FilterCol}
		if s.EntityCol != "" {
			cols = append(cols, s.EntityCol)
		}
		from, err := FromClause(schema, cols)
		if err != nil {
			return "", err
		}
		target := "*"
		if s.EntityCol != "" {
			target = q(s.EntityCol)
		}
		return fmt.Sprintf(`SELECT (SELECT COUNT(%s) FROM %s WHERE %s = %s) * 100.0 / (SELECT COUNT(%s) FROM %s)`,
			target, from, q(s.FilterCol), s.referenceFilterLiteral(), target, from), nil
	}
	return "", fmt.Errorf("nl: unknown spec kind %v", s.Kind)
}

// checkBuildSQL compares BuildSQL with the reference on one spec, errors
// included.
func checkBuildSQL(t *testing.T, schema *Schema, s *Spec) {
	t.Helper()
	got, gotErr := BuildSQL(schema, s)
	want, wantErr := referenceBuildSQL(schema, s)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("BuildSQL(%+v) = %q, %v\nreference %q, %v", *s, got, gotErr, want, wantErr)
	}
}

// TestDifferentialBuildSQL holds BuildSQL to the fmt renderer over every
// kind (and one past the last) crossed with columns of one table, of two
// joined tables and of none, text and numeric filters, constants with
// quotes and conversion factors — errors included.
func TestDifferentialBuildSQL(t *testing.T) {
	schema := ParseSchemaText(`CREATE TABLE "drivers" ("driver_id" INTEGER, "driver" TEXT, "country" TEXT, "wins" INTEGER);
CREATE TABLE "results" ("driver_id" INTEGER, "race_id" INTEGER, "points" REAL);
CREATE TABLE "races" ("race_id" INTEGER, "circuit" TEXT, "laps" INTEGER);
CREATE TABLE "island" ("reef" TEXT, "depth_m" REAL);
`)
	columns := []string{"", "wins", "driver", "points", "circuit", "depth_m", "missing"}
	values := []string{"", "3", "O'Brien", "''", "Aer Lingus"}
	specs := 0
	for kind := KindLookup; kind <= KindMode+1; kind++ {
		for _, col := range columns {
			for _, ent := range columns {
				for _, filter := range columns {
					for _, val := range values {
						for _, conv := range []float64{0, 1, 0.621371, 1000, -2.5} {
							for _, text := range []bool{false, true} {
								s := &Spec{Kind: kind, Column: col, EntityCol: ent, EntityVal: val, FilterCol: filter,
									FilterVal: val, FilterIsText: text, ConvFactor: conv}
								checkBuildSQL(t, schema, s)
								specs++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d specs compared", specs)
}

// TestBuildSQLAllocCeiling: a one-table query is one allocation, plus the
// two textutil.FormatNumber spends rendering a unit-conversion factor.
func TestBuildSQLAllocCeiling(t *testing.T) {
	schema := ParseSchemaText(airlineSchemaText)
	for _, tc := range []struct {
		spec    Spec
		ceiling float64
	}{
		{Spec{Kind: KindLookup, Column: "fatal_accidents_00_14", EntityCol: "airline", EntityVal: "Aer Lingus"}, 1},
		{Spec{Kind: KindPercent, EntityCol: "airline", FilterCol: "incidents_85_99", FilterVal: "2"}, 1},
		{Spec{Kind: KindSum, Column: "avail_seat_km_per_week", ConvFactor: 0.621371}, 3},
	} {
		if got := testing.AllocsPerRun(200, func() { _, _ = BuildSQL(schema, &tc.spec) }); got > tc.ceiling {
			t.Errorf("%v: %.0f allocations, ceiling %.0f", tc.spec.Kind, got, tc.ceiling)
		}
	}
}
