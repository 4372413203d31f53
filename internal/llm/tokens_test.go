package llm

import (
	"math/rand"
	"strings"
	"testing"
)

// countTokensFields is CountTokens as it was written before the word count
// stopped building strings.Fields' slice; the property below pins the two
// to the same result.
func countTokensFields(text string) int {
	if text == "" {
		return 0
	}
	words := len(strings.Fields(text))
	byChars := (len(text) + 3) / 4
	if words > byChars {
		return words
	}
	return byChars
}

func TestDifferentialCountTokens(t *testing.T) {
	fixed := []string{
		"", " ", "a", " a ", "a  b\tc\nd", "SELECT \"x\" FROM t\n", "\v\f\r",
		"a\u0085b", "a\u00a0b", "a\u2003b\u3000c", "\u2028", "\u00e9 \u00e8", "a\xffb", "\xff \xfe",
		"a\u200bb", // zero width space is not White_Space
		strings.Repeat("w ", 500), strings.Repeat("word", 500),
	}
	for _, text := range fixed {
		if got, want := CountTokens(text), countTokensFields(text); got != want {
			t.Errorf("CountTokens(%q) = %d, want %d", text, got, want)
		}
	}
	alphabet := []string{
		"a", "b", "Z", "9", ".", " ", " ", "\t", "\n", "\r", "\v", "\f",
		"\u0085", "\u00a0", "\u1680", "\u2003", "\u2028", "\u202f", "\u3000", "\u200b",
		"\u00e9", "\u4e16", "\xff", "\xc2", "\xe2\x80",
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		text := b.String()
		if got, want := CountTokens(text), countTokensFields(text); got != want {
			t.Fatalf("CountTokens(%q) = %d, want %d", text, got, want)
		}
	}
}
