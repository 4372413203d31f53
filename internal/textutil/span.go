package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Span identifies the position of a claim value inside a claim sentence as a
// token range [Start, End] (inclusive), mirroring the paper's c.span where
// both bounds index the sentence's whitespace tokens.
type Span struct {
	Start int
	End   int
}

// Valid reports whether the span denotes a non-empty in-order token range.
func (s Span) Valid() bool { return s.Start >= 0 && s.End >= s.Start }

// Tokenize splits a sentence into whitespace-delimited tokens. Token
// indices returned by FindValueSpan and consumed by MaskSpan refer to this
// tokenization.
func Tokenize(s string) []string { return strings.Fields(s) }

// NextToken returns the first token of s that starts at or after byte
// offset i, as Tokenize splits s, and the offset just past it; tok is empty
// when no token is left. It walks the tokens without Tokenize's slice.
func NextToken(s string, i int) (tok string, end int) {
	start := -1
	for i < len(s) {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				break
			}
		} else if start < 0 {
			start = i
		}
		i += w
	}
	if start < 0 {
		return "", len(s)
	}
	return s[start:i], i
}

// MaskSpan replaces the tokens covered by span with the single obfuscation
// token "x", implementing line 5 of Algorithm 4 (Pre_Proc). Punctuation
// attached to the final masked token is preserved so the masked sentence
// stays well-formed ("accidents," -> "x,"). The tokens are rejoined by
// single spaces, in one allocation of the result's exact size.
func MaskSpan(sentence string, span Span) string {
	if !span.Valid() {
		return sentence
	}
	// Measure: the token count, the bytes of the tokens the span covers and
	// of all of them, and the last covered token (the span's end, clamped to
	// the sentence).
	n, covered, total := 0, 0, 0
	last := ""
	for i := 0; ; n++ {
		tok, next := NextToken(sentence, i)
		if tok == "" {
			break
		}
		total += len(tok)
		if n >= span.Start && n <= span.End {
			covered += len(tok)
			last = tok
		}
		i = next
	}
	if span.Start >= n {
		return sentence
	}
	suffix := trailingPunct(last)
	kept := n - (min(span.End, n-1) - span.Start + 1)
	var b strings.Builder
	b.Grow(total - covered + kept + len("x") + len(suffix))
	for i, k := 0, 0; ; k++ {
		tok, next := NextToken(sentence, i)
		if tok == "" {
			break
		}
		i = next
		switch {
		case k < span.Start || k > span.End:
			if k > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(tok)
		case k == span.Start:
			if k > 0 {
				b.WriteByte(' ')
			}
			b.WriteString("x")
			b.WriteString(suffix)
		}
	}
	return b.String()
}

// MaskInContext replaces the original claim sentence inside its surrounding
// paragraph with the masked sentence, implementing line 7 of Algorithm 4.
// If the sentence does not occur verbatim in the paragraph the paragraph is
// returned unchanged together with ok=false.
func MaskInContext(paragraph, sentence, masked string) (string, bool) {
	if !strings.Contains(paragraph, sentence) {
		return paragraph, false
	}
	return strings.Replace(paragraph, sentence, masked, 1), true
}

// FindValueSpan locates the first token of the sentence whose numeric or
// textual content equals value, returning its span. Matching ignores
// surrounding punctuation and is case-insensitive; for multi-token values
// the full token run must match. ok=false when the value does not occur.
func FindValueSpan(sentence, value string) (Span, bool) {
	toks := Tokenize(sentence)
	want := Tokenize(value)
	if len(want) == 0 {
		return Span{Start: -1, End: -1}, false
	}
	// Two passes: exact textual token matches first, then numeric
	// equivalence ("2" vs "2.0", "two"). Exact-first keeps a digit value
	// like "1" from latching onto a spelled-out word ("number one") that
	// happens to appear earlier in the sentence.
	for _, exact := range []bool{true, false} {
		for i := 0; i+len(want) <= len(toks); i++ {
			match := true
			for j, w := range want {
				if !tokenEquals(toks[i+j], w, exact) {
					match = false
					break
				}
			}
			if match {
				return Span{Start: i, End: i + len(want) - 1}, true
			}
		}
	}
	return Span{Start: -1, End: -1}, false
}

func tokenEquals(tok, want string, exact bool) bool {
	tok = strings.TrimFunc(tok, isPunct)
	want = strings.TrimFunc(want, isPunct)
	if strings.EqualFold(tok, want) {
		return true
	}
	if exact {
		return false
	}
	// Numeric tokens compare by value ("2" matches "2.0").
	tv, tok1 := ParseNumber(tok)
	wv, ok2 := ParseNumber(want)
	return tok1 && ok2 && tv == wv
}

func isPunct(r rune) bool {
	return unicode.IsPunct(r) && r != '-' && r != '%' && r != '$'
}

func trailingPunct(tok string) string {
	i := len(tok)
	for i > 0 && isPunct(rune(tok[i-1])) {
		i--
	}
	return tok[i:]
}
