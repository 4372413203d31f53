// Package embed provides the sentence-embedding substrate used by CEDAR's
// textual-claim validation. The paper uses the MiniLM-L6 model to compare a
// claimed textual value against a query result; this package substitutes a
// deterministic hashed character-n-gram embedding. Like a learned sentence
// encoder (and unlike exact string matching) it is tolerant of case
// differences, abbreviations, extra tokens, and small spelling mistakes,
// which is exactly the property the 0.7/0.8 similarity thresholds in
// CorrectQuery/CorrectClaim rely on.
package embed

import (
	"math"
	"strings"
	"unicode"
)

// Dim is the dimensionality of embedding vectors. 256 buckets keep
// collisions rare for the short spans (names, titles, categories) that
// textual claims compare.
const Dim = 256

// Vector is a dense embedding of a short text span.
type Vector [Dim]float64

// Embed maps text to its embedding vector. The embedding hashes character
// trigrams of the normalized text (lowercased, punctuation stripped, padded
// per word) into Dim buckets and L2-normalizes the result. Identical texts
// embed identically; texts sharing most trigrams land close in cosine space.
func Embed(text string) Vector {
	s := EmbedSparse(text)
	return s.Dense()
}

// Sparse is the embedding of a text holding only its non-zero components,
// in ascending bucket order. A short phrase touches a few dozen of the Dim
// buckets, so scoring it against many dense vectors reads a few dozen terms
// each instead of Dim. The zero Sparse is the embedding of the empty text.
type Sparse struct {
	n   int
	idx [Dim]uint16
	val [Dim]float64
}

// FNV-1a, 32 bit, written out so a gram is hashed byte by byte as the text
// is scanned: no gram string, no hasher.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

func fnvByte(h uint32, c byte) uint32 { return (h ^ uint32(c)) * fnvPrime }

// wordFeatureSeed is the hash state after the "#w:" prefix of a whole-word
// feature.
var wordFeatureSeed = fnvByte(fnvByte(fnvByte(fnvOffset, '#'), 'w'), ':')

// EmbedSparse is Embed with the result left sparse: EmbedSparse(t).Dense()
// equals Embed(t) component for component. Each word of the normalized text
// contributes a whole-word feature "#w:<word>", which boosts exact token
// overlap, and the byte trigrams of "^<word>$".
func EmbedSparse(text string) (s Sparse) {
	for i := 0; i < len(text); i++ {
		if text[i] >= 0x80 {
			// Unicode case mapping and letter classes are Normalize's
			// business; its output scans like ASCII text below, with every
			// non-ASCII byte part of a word.
			text = Normalize(text)
			break
		}
	}
	var (
		inWord bool
		word   uint32 // running hash of "#w:<word>"
		a, b   byte   // the two bytes of "^<word>" before the current one
		seen   int    // bytes of "^<word>" scanned so far
	)
	for i := 0; i <= len(text); i++ {
		c := byte(' ') // one separator past the end closes the last word
		if i < len(text) {
			c = text[i]
		}
		switch {
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9', c >= 0x80:
		default:
			if inWord {
				s.val[word%Dim]++
				s.val[fnvByte(fnvByte(fnvByte(fnvOffset, a), b), '$')%Dim]++
				inWord = false
			}
			continue
		}
		if !inWord {
			inWord, word, b, seen = true, wordFeatureSeed, '^', 1
		}
		word = fnvByte(word, c)
		if seen++; seen >= 3 {
			s.val[fnvByte(fnvByte(fnvByte(fnvOffset, a), b), c)%Dim]++
		}
		a, b = b, c
	}
	// Compact the counts in place, ascending. Summing squares over the
	// non-zero buckets in bucket order is the dense sum: a skipped bucket
	// would have added +0.
	norm := 0.0
	for i, x := range s.val {
		if x != 0 {
			norm += x * x
			s.idx[s.n], s.val[s.n] = uint16(i), x
			s.n++
		}
	}
	if norm == 0 {
		return s
	}
	norm = math.Sqrt(norm)
	for i := 0; i < s.n; i++ {
		s.val[i] /= norm
	}
	return s
}

// Dense expands the embedding to a Vector.
func (s *Sparse) Dense() (v Vector) {
	for i := 0; i < s.n; i++ {
		v[s.idx[i]] = s.val[i]
	}
	return v
}

// Cosine is Cosine(s.Dense(), *v), bit for bit: the dense loop adds the
// products in bucket order and the ones skipped here are +0, which leaves a
// non-negative sum unchanged.
func (s *Sparse) Cosine(v *Vector) float64 {
	dot := 0.0
	for i := 0; i < s.n; i++ {
		dot += s.val[i] * v[s.idx[i]]
	}
	if dot > 1 {
		dot = 1
	}
	return dot
}

// Cosine returns the cosine similarity of two vectors in [-1, 1] (here
// always [0, 1] since components are non-negative). Zero vectors have
// similarity zero to everything.
func Cosine(a, b Vector) float64 {
	dot := 0.0
	for i := range a {
		dot += a[i] * b[i]
	}
	if dot > 1 {
		dot = 1 // guard float drift past the normalization bound
	}
	return dot
}

// Similarity is the convenience composition Cosine(Embed(a), Embed(b)).
func Similarity(a, b string) float64 {
	sa, vb := EmbedSparse(a), Embed(b)
	return sa.Cosine(&vb)
}

// Normalize lowercases text, maps punctuation to spaces, and collapses
// whitespace — the token normal form shared by embedding and the simulated
// model's entity matching.
func Normalize(text string) string {
	for i := 0; i < len(text); i++ {
		if text[i] >= 0x80 {
			return normalizeUnicode(text)
		}
	}
	// ASCII: the letters and digits are [A-Za-z0-9], and every other run of
	// bytes becomes one space, none at either end — what normalizeUnicode
	// computes, in one allocation.
	var b strings.Builder
	b.Grow(len(text))
	gap := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		default:
			gap = true
			continue
		}
		if gap && b.Len() > 0 {
			b.WriteByte(' ')
		}
		gap = false
		b.WriteByte(c)
	}
	return b.String()
}

// normalizeUnicode is Normalize for text with bytes outside ASCII.
func normalizeUnicode(text string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(text) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}
