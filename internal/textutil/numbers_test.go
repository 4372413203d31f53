package textutil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"2", 2, true},
		{"3.14", 3.14, true},
		{"-7.5", -7.5, true},
		{"1,234", 1234, true},
		{"1,234,567.89", 1234567.89, true},
		{"$42", 42, true},
		{"37%", 37, true},
		{"two", 2, true},
		{"Twenty", 20, true},
		{"3.2 million", 3.2e6, true},
		{"1 billion", 1e9, true},
		{"", 0, false},
		{"Malaysia", 0, false},
		{"x", 0, false},
		{"12abc", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseNumber(c.in)
		if ok != c.ok || (ok && math.Abs(got-c.want) > 1e-9) {
			t.Errorf("ParseNumber(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestParseNumberDecimalSpellingsOnly pins which strconv.ParseFloat
// spellings are not claim numbers: a claim whose value is the word
// "Infinity" is textual, and nothing can be in the order of magnitude of +Inf.
func TestParseNumberDecimalSpellingsOnly(t *testing.T) {
	for _, s := range []string{
		"Infinity", "Inf", "inf", "-Inf", "+infinity", "nan", "NaN",
		"0x1p4", "0X1P-2", "-0x1.8p1", "1_000", "$Inf", "inf%", "1e999",
	} {
		if v, ok := ParseNumber(s); ok {
			t.Errorf("ParseNumber(%q) = %v, true; want a textual value", s, v)
		}
		if IsNumeric(s) {
			t.Errorf("IsNumeric(%q) = true", s)
		}
		if RoundMatches(s, math.Inf(1)) {
			t.Errorf("RoundMatches(%q, +Inf) = true", s)
		}
	}
	for s, want := range map[string]float64{
		"1e3": 1000, "1E3": 1000, "+5": 5, "-2.5e-1": -0.25, ".5": 0.5, "5.": 5, "$1e3": 1000,
	} {
		if v, ok := ParseNumber(s); !ok || v != want {
			t.Errorf("ParseNumber(%q) = %v, %v; want %v, true", s, v, ok, want)
		}
	}
}

func TestPrecision(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"3", 0},
		{"3.1", 1},
		{"3.14", 2},
		{"3.140", 3},
		{"-2.50", 2},
		{"1,234.5", 1},
		{"42%", 0},
		{"$19.99", 2},
	}
	for _, c := range cases {
		if got := Precision(c.in); got != c.want {
			t.Errorf("Precision(%q) = %d want %d", c.in, got, c.want)
		}
	}
}

// TestRoundMatchesExample41 pins the exact semantics of Example 4.1 in the
// paper: 3.140 matches "3.1" and "3" but not "3.143"; 3.143 matches "3.14".
func TestRoundMatchesExample41(t *testing.T) {
	cases := []struct {
		claim  string
		result float64
		want   bool
	}{
		{"3.1", 3.140, true},
		{"3", 3.140, true},
		{"3.143", 3.140, false},
		{"3.14", 3.143, true},
		{"2", 2.1, true},
		{"2", 2.6, false},
		{"2", 2.0, true},
		{"10", 9.6, true},
		{"10", 9.4, false},
		{"0.5", 0.49, true},
		{"0.5", 0.44, false},
	}
	for _, c := range cases {
		if got := RoundMatches(c.claim, c.result); got != c.want {
			t.Errorf("RoundMatches(%q, %v) = %v want %v", c.claim, c.result, got, c.want)
		}
	}
}

func TestRoundMatchesNonNumericClaim(t *testing.T) {
	if RoundMatches("hello", 3) {
		t.Error("non-numeric claim must not match any number")
	}
}

func TestSameOrderOfMagnitude(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{2, 3, true},
		{2, 20, true},   // adjacent magnitude allowed
		{2, 200, false}, // two magnitudes apart
		{0.5, 5, true},
		{-3, -4, true},
		{-3, 3, false}, // sign mismatch
		{0, 0, true},
		{0, 0.5, true},
		{0, 50, false},
		{1e6, 1.5e6, true},
		{1e6, 1e9, false},
	}
	for _, c := range cases {
		if got := SameOrderOfMagnitude(c.a, c.b); got != c.want {
			t.Errorf("SameOrderOfMagnitude(%v, %v) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFormatNumber(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{2, "2"},
		{-17, "-17"},
		{3.14, "3.14"},
		{3.140, "3.14"},
		{0.5, "0.5"},
		{1000000, "1000000"},
	}
	for _, c := range cases {
		if got := FormatNumber(c.in); got != c.want {
			t.Errorf("FormatNumber(%v) = %q want %q", c.in, got, c.want)
		}
	}
}

// Property: a result equal to the parsed claim value always round-matches
// the claim at any precision the claim states.
func TestRoundMatchesIdentityProperty(t *testing.T) {
	f := func(ip int16, frac uint8) bool {
		v := float64(ip) + float64(frac%100)/100
		claim := FormatNumber(RoundTo(v, 2))
		return RoundMatches(claim, RoundTo(v, 2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rounding to precision p yields a value within half an ulp of
// 10^-p of the input.
func TestRoundToBoundProperty(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(7))}
	f := func(raw int32, p uint8) bool {
		x := float64(raw) / 997.0
		prec := int(p % 6)
		r := RoundTo(x, prec)
		return math.Abs(r-x) <= 0.5*math.Pow(10, -float64(prec))+1e-12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: ParseNumber round-trips FormatNumber for representable values.
func TestParseFormatRoundTrip(t *testing.T) {
	f := func(raw int32) bool {
		v := float64(raw) / 4.0
		got, ok := ParseNumber(FormatNumber(v))
		return ok && math.Abs(got-v) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsNumeric(t *testing.T) {
	if !IsNumeric("42") || !IsNumeric("two") || IsNumeric("Boeing") {
		t.Error("IsNumeric classification")
	}
}
