package sqldb

import "errors"

// Sentinel errors surfaced by the engine. Callers (in particular the agent's
// database_querying tool) match on these to produce targeted feedback.
var (
	// ErrSyntax indicates the query text could not be parsed.
	ErrSyntax = errors.New("sqldb: syntax error")
	// ErrUnknownTable indicates a FROM or JOIN references an absent table.
	ErrUnknownTable = errors.New("sqldb: unknown table")
	// ErrUnknownColumn indicates a column reference could not be resolved.
	ErrUnknownColumn = errors.New("sqldb: unknown column")
	// ErrNotScalar indicates a query expected to yield a single cell
	// returned zero rows, multiple rows, or multiple columns.
	ErrNotScalar = errors.New("sqldb: query result is not a single cell")
	// ErrType indicates an operator or function received incompatible
	// operand types.
	ErrType = errors.New("sqldb: type error")
	// ErrUnsupported indicates a recognized but unimplemented SQL feature.
	ErrUnsupported = errors.New("sqldb: unsupported SQL feature")
	// ErrOverflow indicates integer arithmetic or an integer SUM whose exact
	// result does not fit in an int64.
	ErrOverflow = errors.New("sqldb: integer overflow")
)
