// Package textutil provides text- and number-handling primitives shared by
// the CEDAR claim-verification pipeline: numeric parsing of claim values,
// precision-aware rounding comparison (Algorithm 3 of the paper), span
// masking (Algorithm 4), and lightweight tokenization.
package textutil

import (
	"math"
	"strconv"
	"strings"
)

// numberWords maps small spelled-out English numbers to their numeric value.
// Claims in prose frequently spell out small quantities ("two fatal
// accidents"); the verifier must treat them as numeric claim values.
var numberWords = map[string]float64{
	"zero": 0, "one": 1, "two": 2, "three": 3, "four": 4,
	"five": 5, "six": 6, "seven": 7, "eight": 8, "nine": 9,
	"ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13,
	"fourteen": 14, "fifteen": 15, "sixteen": 16, "seventeen": 17,
	"eighteen": 18, "nineteen": 19, "twenty": 20, "thirty": 30,
	"forty": 40, "fifty": 50, "sixty": 60, "seventy": 70,
	"eighty": 80, "ninety": 90, "hundred": 100, "thousand": 1000,
	"million": 1e6, "billion": 1e9,
}

// ParseNumber extracts a numeric value from a claim-value string. It accepts
// plain decimals, thousands separators, leading currency symbols, trailing
// percent signs, magnitude suffixes ("3.2 million"), and spelled-out small
// numbers ("two"). The boolean result reports whether s denotes a number.
// Only decimal spellings count: strconv.ParseFloat would also read "Inf",
// "Infinity", "nan", hex floats ("0x1p4") and Go's digit-separating
// underscores as numbers, and a claim whose value is the word "Infinity" is
// a textual claim.
func ParseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	lower := strings.ToLower(s)
	if v, ok := numberWords[lower]; ok {
		return v, true
	}
	// Handle "3.2 million" style magnitude suffixes.
	if fields := strings.Fields(lower); len(fields) == 2 {
		if mult, ok := numberWords[fields[1]]; ok && mult >= 100 {
			if base, ok := ParseNumber(fields[0]); ok {
				return base * mult, true
			}
		}
	}
	cleaned := strings.TrimLeft(s, "$€£")
	cleaned = strings.TrimRight(cleaned, "%")
	cleaned = strings.ReplaceAll(cleaned, ",", "")
	cleaned = strings.TrimSpace(cleaned)
	if !DecimalSpelling(cleaned) {
		return 0, false
	}
	v, err := strconv.ParseFloat(cleaned, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// DecimalSpelling reports whether s is made only of the bytes a decimal or
// scientific-notation number is written with: digits, '.', signs, 'e' and
// 'E'. It is the one test that keeps strconv's non-finite ("NaN", "Inf"),
// hexadecimal ("0x1p4") and underscored ("1_000") spellings from being read
// as numbers, here, in sqldb.LoadCSV and in ingest's type inference; strconv
// still decides whether the bytes form a number (and rejects one that
// overflows).
func DecimalSpelling(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9', c == '.', c == '+', c == '-', c == 'e', c == 'E':
		default:
			return false
		}
	}
	return true
}

// IsNumeric reports whether s denotes a numeric claim value under the same
// lexical rules as ParseNumber.
func IsNumeric(s string) bool {
	_, ok := ParseNumber(s)
	return ok
}

// Precision returns the number of significant decimal places of a textual
// numeric claim value, e.g. Precision("3.14") = 2 and Precision("3") = 0.
// Trailing zeros are significant: Precision("3.140") = 3, matching the
// paper's GetPrecision semantics where the author's stated precision governs
// the rounding comparison.
func Precision(s string) int {
	s = strings.TrimSpace(s)
	s = strings.TrimLeft(s, "$€£")
	s = strings.TrimRight(s, "%")
	s = strings.ReplaceAll(s, ",", "")
	// Strip exponent part if present; precision of scientific notation is
	// taken from the mantissa.
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		s = s[:i]
	}
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return 0
	}
	return len(s) - dot - 1
}

// RoundTo rounds x to prec decimal places using half-away-from-zero
// rounding, the convention used when prose rounds statistics.
func RoundTo(x float64, prec int) float64 {
	if prec < 0 {
		prec = 0
	}
	pow := math.Pow(10, float64(prec))
	return math.Round(x*pow) / pow
}

// Number is a numeric claim value parsed once: its magnitude and the decimal
// places its author wrote, which govern the rounding comparison.
type Number struct {
	Value     float64
	Precision int
}

// ParseNumeric parses s under ParseNumber's rules and keeps its stated
// precision alongside, so a caller comparing many results against one claim
// value reads the text once.
func ParseNumeric(s string) (Number, bool) {
	v, ok := ParseNumber(s)
	if !ok {
		return Number{}, false
	}
	return Number{Value: v, Precision: Precision(s)}, true
}

// RoundMatches implements the claim-validation comparison of Algorithm 3:
// the query result matches the claim value iff rounding the result to the
// claim's stated precision yields the claim value. Per Example 4.1 a query
// result of 3.140 matches claimed "3.1" and "3" but not "3.143", while a
// result of 3.143 matches "3.14".
func (n Number) RoundMatches(result float64) bool {
	rounded := RoundTo(result, n.Precision)
	// Compare at the claim's precision to avoid float representation noise.
	return math.Abs(rounded-n.Value) < 0.5*math.Pow(10, float64(-n.Precision))*1e-6+1e-9
}

// RoundMatches is Number.RoundMatches for a claim value still in text form;
// a non-numeric claim matches nothing.
func RoundMatches(claim string, result float64) bool {
	n, ok := ParseNumeric(claim)
	return ok && n.RoundMatches(result)
}

// SameOrderOfMagnitude implements the plausibility gate of CorrectQuery for
// numeric claims: a translated query is deemed plausible when its result is
// in the same order of magnitude as the claimed value. Zero values are
// treated as magnitude zero and only match values below one in absolute
// value; sign mismatches are implausible.
func SameOrderOfMagnitude(a, b float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	// Zero claims (and zero results) are common for counts; a zero is
	// "near" any single-digit value, since off-by-small count errors are
	// exactly what the verification pipeline must examine rather than
	// reject as implausible.
	if a == 0 || b == 0 {
		return math.Abs(a+b) < 10
	}
	if (a < 0) != (b < 0) {
		return false
	}
	ma := math.Floor(math.Log10(math.Abs(a)))
	mb := math.Floor(math.Log10(math.Abs(b)))
	return math.Abs(ma-mb) <= 1
}

// FormatNumber renders a float the way query results are surfaced in agent
// observations and reconstruction: integers without a decimal point,
// fractional values with up to six significant decimals trimmed of trailing
// zeros.
func FormatNumber(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	s := strconv.FormatFloat(v, 'f', 6, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	return s
}
