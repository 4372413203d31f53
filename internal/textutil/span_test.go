package textutil

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const airlineSentence = "The two fatal accidents involving Malaysia Airlines this year were the first for the carrier since 1995."

func TestFindValueSpan(t *testing.T) {
	span, ok := FindValueSpan(airlineSentence, "two")
	if !ok || span.Start != 1 || span.End != 1 {
		t.Fatalf("FindValueSpan = %+v, %v; want {1 1}, true", span, ok)
	}
	// Numeric equivalence: "1995." token matches value "1995".
	span, ok = FindValueSpan(airlineSentence, "1995")
	if !ok || span.Start != 16 {
		t.Fatalf("FindValueSpan(1995) = %+v, %v", span, ok)
	}
	if _, ok := FindValueSpan(airlineSentence, "Boeing"); ok {
		t.Error("found span for absent value")
	}
}

func TestFindValueSpanMultiToken(t *testing.T) {
	s := "The winner was Lewis Hamilton at the race."
	span, ok := FindValueSpan(s, "Lewis Hamilton")
	if !ok || span.Start != 3 || span.End != 4 {
		t.Fatalf("got %+v, %v", span, ok)
	}
	if got := SpanText(s, span); got != "Lewis Hamilton" {
		t.Errorf("SpanText = %q", got)
	}
}

func TestMaskSpan(t *testing.T) {
	got := MaskSpan(airlineSentence, Span{Start: 1, End: 1})
	want := "The x fatal accidents involving Malaysia Airlines this year were the first for the carrier since 1995."
	if got != want {
		t.Errorf("MaskSpan = %q want %q", got, want)
	}
}

func TestMaskSpanPreservesTrailingPunct(t *testing.T) {
	s := "It rose to 42, according to the data."
	span, ok := FindValueSpan(s, "42")
	if !ok {
		t.Fatal("span not found")
	}
	got := MaskSpan(s, span)
	if !strings.Contains(got, "x,") {
		t.Errorf("trailing comma lost: %q", got)
	}
}

func TestMaskSpanMultiTokenValue(t *testing.T) {
	s := "The winner was Lewis Hamilton at the race."
	got := MaskSpan(s, Span{Start: 3, End: 4})
	want := "The winner was x at the race."
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestMaskSpanInvalid(t *testing.T) {
	if got := MaskSpan("a b c", Span{Start: -1, End: -1}); got != "a b c" {
		t.Errorf("invalid span must be identity, got %q", got)
	}
	if got := MaskSpan("a b c", Span{Start: 9, End: 9}); got != "a b c" {
		t.Errorf("out-of-range span must be identity, got %q", got)
	}
	// End clamped to sentence length.
	if got := MaskSpan("a b c", Span{Start: 2, End: 10}); got != "a b x" {
		t.Errorf("clamped span got %q", got)
	}
}

func TestMaskInContext(t *testing.T) {
	para := "Some intro. " + airlineSentence + " Some outro."
	masked := MaskSpan(airlineSentence, Span{Start: 1, End: 1})
	got, ok := MaskInContext(para, airlineSentence, masked)
	if !ok {
		t.Fatal("sentence not found in paragraph")
	}
	if strings.Contains(got, " two ") {
		t.Errorf("claim value leaked into context: %q", got)
	}
	if _, ok := MaskInContext("unrelated", airlineSentence, masked); ok {
		t.Error("MaskInContext reported success on absent sentence")
	}
}

// Property: masking never leaves the original claim-value token in place and
// keeps the token count consistent (span width collapses to one token).
func TestMaskSpanProperty(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	f := func(startRaw, widthRaw uint8) bool {
		start := int(startRaw) % len(words)
		width := 1 + int(widthRaw)%2
		if start+width > len(words) {
			width = len(words) - start
		}
		sentence := strings.Join(words, " ")
		span := Span{Start: start, End: start + width - 1}
		masked := MaskSpan(sentence, span)
		toks := Tokenize(masked)
		if len(toks) != len(words)-width+1 {
			return false
		}
		return toks[start] == "x"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpanWidth(t *testing.T) {
	if (Span{Start: 2, End: 4}).Width() != 3 {
		t.Error("width of 3-token span")
	}
	if (Span{Start: -1, End: -1}).Width() != 0 {
		t.Error("invalid span width")
	}
}

// referenceMaskSpan is MaskSpan as it was before it wrote its result in one
// allocation: the token slice, a second slice of the kept tokens, Join.
func referenceMaskSpan(sentence string, span Span) string {
	toks := Tokenize(sentence)
	if !span.Valid() || span.Start >= len(toks) {
		return sentence
	}
	end := span.End
	if end >= len(toks) {
		end = len(toks) - 1
	}
	suffix := trailingPunct(toks[end])
	masked := append([]string{}, toks[:span.Start]...)
	masked = append(masked, "x"+suffix)
	masked = append(masked, toks[end+1:]...)
	return strings.Join(masked, " ")
}

// TestDifferentialMaskSpan holds MaskSpan to the slice-and-join masking over
// random sentences of ASCII and Unicode spaces, punctuation (trailing, multi-
// byte, a lone continuation byte) and invalid UTF-8, under every span shape:
// invalid, out of range, clamped, whole-sentence. NextToken walks the same
// tokens as Tokenize on each.
func TestDifferentialMaskSpan(t *testing.T) {
	alphabet := []string{
		"a", "Z", "9", "x", "-", "%", "$", ".", ",", "!", "\"", "'", " ", "  ", "\t", "\n", "\v", "\f", "\r",
		"\u0085", "\u00a0", "\u2003", "\u3000", "\u200b", "\u00e9", "\u00bf", "\u00ab", "\u00bb", "\u00b7", "\u4e16",
		"\xff", "\xc2", "\xa1", "\xe2\x80",
	}
	rng := rand.New(rand.NewSource(11))
	sentences := []string{"", " ", airlineSentence, "It rose to 42, according to the data.", "a b c"}
	for i := 0; i < 4000; i++ {
		var b strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		sentences = append(sentences, b.String())
	}
	for _, s := range sentences {
		toks := Tokenize(s)
		var walked []string
		for i := 0; ; {
			tok, next := NextToken(s, i)
			if tok == "" {
				break
			}
			walked = append(walked, tok)
			i = next
		}
		if !reflect.DeepEqual(walked, toks) && len(walked)+len(toks) > 0 {
			t.Fatalf("NextToken walks %q as %q, Tokenize %q", s, walked, toks)
		}
		for start := -1; start <= len(toks)+1; start++ {
			for end := start - 1; end <= len(toks)+2; end++ {
				span := Span{Start: start, End: end}
				if got, want := MaskSpan(s, span), referenceMaskSpan(s, span); got != want {
					t.Fatalf("MaskSpan(%q, %+v) = %q, want %q", s, span, got, want)
				}
			}
		}
	}
}

// TestMaskSpanAllocCeiling: a masking is one allocation, the result.
func TestMaskSpanAllocCeiling(t *testing.T) {
	for _, span := range []Span{{1, 1}, {0, 3}, {16, 40}} {
		if got := testing.AllocsPerRun(200, func() { _ = MaskSpan(airlineSentence, span) }); got > 1 {
			t.Errorf("MaskSpan(%+v): %.0f allocations, ceiling 1", span, got)
		}
	}
}
