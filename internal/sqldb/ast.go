package sqldb

import (
	"fmt"
	"strings"
)

// Expr is a SQL expression node.
type Expr interface {
	// SQL renders the expression back to SQL text.
	SQL() string
}

// quoteIdent renders an identifier in double quotes, doubling embedded
// quote characters so the result re-lexes to the same identifier.
func quoteIdent(name string) string {
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

// bareOrQuoted renders positions that are conventionally unquoted (table
// aliases, star qualifiers) bare when the name lexes as a plain identifier
// token, falling back to quoting otherwise.
func bareOrQuoted(name string) string {
	if isBareIdent(name) {
		return name
	}
	return quoteIdent(name)
}

func isBareIdent(name string) bool {
	if name == "" || keywords[strings.ToUpper(name)] {
		return false
	}
	for i, r := range name {
		if i == 0 && !isIdentStart(r) {
			return false
		}
		if i > 0 && !isIdentPart(r) {
			return false
		}
	}
	return true
}

// LiteralExpr is a constant value.
type LiteralExpr struct{ Val Value }

// SQL implements Expr.
func (e *LiteralExpr) SQL() string {
	if e.Val.Kind() == KindText {
		return "'" + strings.ReplaceAll(e.Val.Text(), "'", "''") + "'"
	}
	s := e.Val.String()
	// A float literal must render as one: FormatFloat('f', -1) drops the
	// decimal point for integral values (including negative zero), which
	// would round-trip to an integer literal and change result formatting.
	if e.Val.Kind() == KindFloat && !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// ColumnExpr references a column, optionally qualified by a table name or
// alias.
type ColumnExpr struct {
	Table string // optional qualifier
	Name  string
}

// SQL implements Expr.
func (e *ColumnExpr) SQL() string {
	if e.Table != "" {
		return quoteIdent(e.Table) + "." + quoteIdent(e.Name)
	}
	return quoteIdent(e.Name)
}

// StarExpr is the * projection (optionally table-qualified).
type StarExpr struct{ Table string }

// SQL implements Expr.
func (e *StarExpr) SQL() string {
	if e.Table != "" {
		return bareOrQuoted(e.Table) + ".*"
	}
	return "*"
}

// UnaryExpr applies a prefix operator: "-" or "NOT".
type UnaryExpr struct {
	Op   string
	Expr Expr
}

// SQL implements Expr.
func (e *UnaryExpr) SQL() string {
	if e.Op == "NOT" {
		return "NOT " + e.Expr.SQL()
	}
	// An operand that itself renders with a leading minus (a nested negation)
	// is parenthesized: "--" opens a line comment, so "- -2" concatenated
	// would swallow the rest of the statement when the text is re-parsed.
	operand := e.Expr.SQL()
	if strings.HasPrefix(operand, "-") {
		operand = "(" + operand + ")"
	}
	return e.Op + operand
}

// BinaryExpr applies an infix operator: arithmetic, comparison, AND/OR,
// LIKE, or string concatenation (||).
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// SQL implements Expr.
func (e *BinaryExpr) SQL() string {
	return fmt.Sprintf("(%s %s %s)", e.Left.SQL(), e.Op, e.Right.SQL())
}

// BetweenExpr is `expr [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	Expr, Lo, Hi Expr
	Not          bool
}

// SQL implements Expr.
func (e *BetweenExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", e.Expr.SQL(), not, e.Lo.SQL(), e.Hi.SQL())
}

// InExpr is `expr [NOT] IN (list...)` or `expr [NOT] IN (subquery)`.
type InExpr struct {
	Expr Expr
	List []Expr
	Sub  *SelectStmt
	Not  bool
}

// SQL implements Expr.
func (e *InExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	if e.Sub != nil {
		return fmt.Sprintf("(%s %sIN (%s))", e.Expr.SQL(), not, e.Sub.SQL())
	}
	items := make([]string, len(e.List))
	for i, it := range e.List {
		items[i] = it.SQL()
	}
	return fmt.Sprintf("(%s %sIN (%s))", e.Expr.SQL(), not, strings.Join(items, ", "))
}

// IsNullExpr is `expr IS [NOT] NULL`.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

// SQL implements Expr.
func (e *IsNullExpr) SQL() string {
	if e.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", e.Expr.SQL())
	}
	return fmt.Sprintf("(%s IS NULL)", e.Expr.SQL())
}

// FuncExpr is a function call, covering both aggregates (COUNT, SUM, AVG,
// MIN, MAX) and scalar functions (ABS, ROUND, LOWER, ...). Name is
// uppercase. Star marks COUNT(*); Distinct marks COUNT(DISTINCT x) etc.
type FuncExpr struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

// SQL implements Expr.
func (e *FuncExpr) SQL() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.SQL()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", e.Name, d, strings.Join(args, ", "))
}

// IsAggregate reports whether the call is one of the aggregate functions.
func (e *FuncExpr) IsAggregate() bool {
	switch e.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// CastExpr is `CAST(expr AS type)`.
type CastExpr struct {
	Expr Expr
	Type Kind
}

// SQL implements Expr.
func (e *CastExpr) SQL() string {
	return fmt.Sprintf("CAST(%s AS %s)", e.Expr.SQL(), e.Type)
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // may be nil
}

// CaseWhen is one WHEN/THEN arm of a CASE expression.
type CaseWhen struct {
	Cond, Then Expr
}

// SQL implements Expr.
func (e *CaseExpr) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond.SQL(), w.Then.SQL())
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", e.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}

// SubqueryExpr is a scalar subquery used as an expression.
type SubqueryExpr struct{ Stmt *SelectStmt }

// SQL implements Expr.
func (e *SubqueryExpr) SQL() string { return "(" + e.Stmt.SQL() + ")" }

// ExistsExpr is `EXISTS (subquery)`.
type ExistsExpr struct {
	Stmt *SelectStmt
	Not  bool
}

// SQL implements Expr.
func (e *ExistsExpr) SQL() string {
	if e.Not {
		return "NOT EXISTS (" + e.Stmt.SQL() + ")"
	}
	return "EXISTS (" + e.Stmt.SQL() + ")"
}

// SelectItem is one projection of a SELECT list with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef is one relation in the FROM clause with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// EffectiveName returns the alias if present, otherwise the table name.
func (t TableRef) EffectiveName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one JOIN in the FROM clause. Only inner and cross joins are
// executed; LEFT is parsed and rejected at execution with ErrUnsupported so
// the agent receives actionable feedback.
type JoinClause struct {
	Kind  string // "INNER", "CROSS", "LEFT"
	Table TableRef
	On    Expr // nil for CROSS
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef // nil for table-less SELECT (e.g. SELECT 1+1)
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int // 0 when absent
}

// SQL renders the statement back to SQL text.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.Expr.SQL())
		if it.Alias != "" {
			b.WriteString(" AS " + quoteIdent(it.Alias))
		}
	}
	if s.From != nil {
		b.WriteString(" FROM " + quoteIdent(s.From.Name))
		if s.From.Alias != "" {
			b.WriteString(" " + bareOrQuoted(s.From.Alias))
		}
	}
	for _, j := range s.Joins {
		fmt.Fprintf(&b, " %s JOIN %s", j.Kind, quoteIdent(j.Table.Name))
		if j.Table.Alias != "" {
			b.WriteString(" " + bareOrQuoted(j.Table.Alias))
		}
		if j.On != nil {
			b.WriteString(" ON " + j.On.SQL())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.SQL())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	if s.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", s.Offset)
	}
	return b.String()
}
