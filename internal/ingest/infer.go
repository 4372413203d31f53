package ingest

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/sqldb"
)

// infer.go classifies raw cell text into the ingest type lattice. The
// lattice is wider than sqldb's value kinds — it distinguishes booleans and
// dates — but every type maps onto a sqldb kind for storage: dates have no
// native kind in the engine, so they store as TEXT in a normalized form that
// compares lexicographically in chronological order.

// ColType is the inferred type of an ingested column.
type ColType int

// Ingest column types, ordered roughly by specificity. mergeColType widens
// along this lattice: Int ∪ Float = Float, Bool/Date ∪ anything else =
// String, and Unknown (all NULLs so far) adopts whatever appears.
const (
	ColUnknown ColType = iota
	ColInt
	ColFloat
	ColBool
	ColDate
	ColString
)

// String names the type the way docs/DATA.md's inference table does.
func (t ColType) String() string {
	switch t {
	case ColInt:
		return "int"
	case ColFloat:
		return "float"
	case ColBool:
		return "bool"
	case ColDate:
		return "date"
	case ColString:
		return "string"
	default:
		return "unknown"
	}
}

// sqlKind maps an ingest type to the sqldb kind its values store as.
func (t ColType) sqlKind() sqldb.Kind {
	switch t {
	case ColInt:
		return sqldb.KindInt
	case ColFloat:
		return sqldb.KindFloat
	case ColBool:
		return sqldb.KindBool
	case ColDate, ColString:
		return sqldb.KindText
	default:
		return sqldb.KindNull
	}
}

// nullTokens are the case-insensitive spellings ingested as SQL NULL.
var nullTokens = map[string]bool{
	"": true, "null": true, "na": true, "n/a": true, "nan": true,
}

// dateLayouts are the accepted date spellings, tried in order. Every layout
// normalizes to ISO "2006-01-02" for storage. classify checks the first by
// hand (isoDate) and hands only the others to time.Parse.
var dateLayouts = []string{
	"2006-01-02",
	"2006/01/02",
	"01/02/2006",
	"Jan 2, 2006",
	"2 Jan 2006",
}

// classify converts one raw cell into its sqldb value and ingest type.
// Null tokens classify as (NULL, ColUnknown) so they never narrow a column.
// A parser that fails allocates its error, and most cells of a text column
// would fail all seven, so each family of parsers runs only on a cell whose
// bytes could satisfy it.
func classify(raw string) (sqldb.Value, ColType) {
	t := strings.TrimSpace(raw)
	// Every null and bool token is ASCII of at most five bytes without a 'k'
	// or an 'i', the only letters a rune outside ASCII lower-cases into, so
	// no longer cell can lower-case into one.
	var lower string
	if len(t) <= 5 {
		lower = strings.ToLower(t)
		if nullTokens[lower] {
			return sqldb.Null(), ColUnknown
		}
	}
	if numberShaped(t) {
		if intShaped(t) {
			if i, err := strconv.ParseInt(t, 10, 64); err == nil {
				return sqldb.Int(i), ColInt
			}
		}
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			// Infinities would otherwise sneak through ParseFloat; treat them as
			// text so aggregates stay finite. (NaN spellings are null tokens.)
			if !strings.ContainsAny(t, "iI") {
				return sqldb.Float(f), ColFloat
			}
		}
	}
	switch lower {
	case "true", "false":
		return sqldb.Bool(lower == "true"), ColBool
	}
	if isoDate(t) {
		return sqldb.Text(t), ColDate
	}
	if dateShaped(t) {
		for _, layout := range dateLayouts[1:] {
			if d, err := time.Parse(layout, t); err == nil {
				return sqldb.Text(d.Format("2006-01-02")), ColDate
			}
		}
	}
	return sqldb.Text(t), ColString
}

// numberShaped reports whether t could be a strconv integer or float. After
// one optional sign, every spelling they accept is "inf", "infinity" or
// "nan" in any case, or starts with a digit or a decimal point. Such a
// numeral holds only letters (hex digits, exponent marks), digits, '.', '_'
// and signs, and a sign past the first byte follows an exponent mark, 'e'
// or, in hex, 'p'. So a date's '-' after a digit rules both parsers out.
func numberShaped(t string) bool {
	body := t
	if body != "" && (body[0] == '+' || body[0] == '-') {
		body = body[1:]
	}
	if body == "" {
		return false
	}
	switch c := body[0]; {
	case c == 'i', c == 'I', c == 'n', c == 'N':
		return strings.EqualFold(body, "inf") || strings.EqualFold(body, "infinity") || strings.EqualFold(body, "nan")
	case '0' <= c && c <= '9', c == '.':
	default:
		return false
	}
	for i := 1; i < len(t); i++ {
		switch c := t[i]; {
		case c == '+' || c == '-':
			if p := t[i-1]; p != 'e' && p != 'E' && p != 'p' && p != 'P' {
				return false
			}
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_':
		default:
			return false
		}
	}
	return true
}

// intShaped reports whether t is what strconv.ParseInt accepts in base 10
// short of overflow: one optional sign, then one or more ASCII digits.
func intShaped(t string) bool {
	if t != "" && (t[0] == '+' || t[0] == '-') {
		t = t[1:]
	}
	if t == "" {
		return false
	}
	for i := 0; i < len(t); i++ {
		if t[i] < '0' || t[i] > '9' {
			return false
		}
	}
	return true
}

// isoDate reports whether time.Parse accepts t under "2006-01-02": four
// digits of year, '-', a two-digit month 1–12, '-', and a two-digit day that
// month has, leap years counted. Such a t is already its own normal form.
func isoDate(t string) bool {
	if len(t) != 10 || t[4] != '-' || t[7] != '-' {
		return false
	}
	for _, i := range [...]int{0, 1, 2, 3, 5, 6, 8, 9} {
		if t[i] < '0' || t[i] > '9' {
			return false
		}
	}
	year := int(t[0]-'0')*1000 + int(t[1]-'0')*100 + int(t[2]-'0')*10 + int(t[3]-'0')
	month := int(t[5]-'0')*10 + int(t[6]-'0')
	day := int(t[8]-'0')*10 + int(t[9]-'0')
	if month < 1 || month > 12 || day < 1 {
		return false
	}
	days := [...]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}[month-1]
	if month == 2 && year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		days = 29
	}
	return day <= days
}

// dateShaped reports whether t could match one of dateLayouts. The three
// numeric layouts are fixed-width with their separators at known offsets;
// the two with a month name hold at least one space and end in the four
// digits of the year.
func dateShaped(t string) bool {
	n := len(t)
	if n < 10 {
		return false
	}
	if n == 10 && ((t[4] == '-' || t[4] == '/') && t[7] == t[4] || t[2] == '/' && t[5] == '/') {
		return true
	}
	for i := n - 4; i < n; i++ {
		if t[i] < '0' || t[i] > '9' {
			return false
		}
	}
	return strings.IndexByte(t, ' ') >= 0
}

// mergeColType widens a column's type to cover a newly observed cell type.
func mergeColType(cur, next ColType) ColType {
	if next == ColUnknown {
		return cur
	}
	if cur == ColUnknown || cur == next {
		return next
	}
	if (cur == ColInt && next == ColFloat) || (cur == ColFloat && next == ColInt) {
		return ColFloat
	}
	return ColString
}

// looksLikeHeader decides whether a CSV first record is a header: every cell
// must be non-empty, classify as plain text (a numeric, boolean, or date
// first row is data), and the names must be unique case-insensitively.
func looksLikeHeader(rec []string) bool {
	if len(rec) == 0 {
		return false
	}
	seen := make(map[string]bool, len(rec))
	for _, cell := range rec {
		t := strings.TrimSpace(cell)
		if t == "" {
			return false
		}
		if _, ct := classify(t); ct != ColString {
			return false
		}
		k := strings.ToLower(t)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// cleanColumnName normalizes a header cell into a SQL-friendly column name:
// trimmed, lowercased, interior whitespace and punctuation collapsed to
// underscores. Empty results fall back to a positional name.
func cleanColumnName(raw string, pos int) string {
	t := strings.TrimSpace(raw)
	var b strings.Builder
	lastUnderscore := true // suppress leading underscores
	for _, r := range strings.ToLower(t) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	name := strings.TrimSuffix(b.String(), "_")
	if name == "" {
		name = "col" + strconv.Itoa(pos+1)
	}
	return name
}
