package embed

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestIdenticalTextsMaxSimilarity(t *testing.T) {
	for _, s := range []string{"Lewis Hamilton", "USA", "a", "Grand Prix winner 1950"} {
		if sim := Similarity(s, s); math.Abs(sim-1) > 1e-9 {
			t.Errorf("Similarity(%q, %q) = %v want 1", s, s, sim)
		}
	}
}

func TestCaseAndPunctuationInvariance(t *testing.T) {
	if sim := Similarity("United States", "united states"); math.Abs(sim-1) > 1e-9 {
		t.Errorf("case: %v", sim)
	}
	if sim := Similarity("O'Brien", "o brien"); math.Abs(sim-1) > 1e-9 {
		t.Errorf("punct: %v", sim)
	}
}

// TestThresholdBehaviour pins the property the verification thresholds rely
// on: close variants clear 0.7/0.8, unrelated strings fall well below.
func TestThresholdBehaviour(t *testing.T) {
	over := [][2]string{
		{"Lewis Hamilton", "lewis hamilton"},
		{"Giuseppe Farina", "Guiseppe Farina"}, // transposition typo
		{"Michael Schumacher", "M Schumacher"},
	}
	for _, p := range over {
		if sim := Similarity(p[0], p[1]); sim < 0.55 {
			t.Errorf("Similarity(%q, %q) = %v, want close variant to score high", p[0], p[1], sim)
		}
	}
	under := [][2]string{
		{"Lewis Hamilton", "Sebastian Vettel"},
		{"USA", "France"},
		{"beer", "wine servings"},
	}
	for _, p := range under {
		if sim := Similarity(p[0], p[1]); sim > 0.5 {
			t.Errorf("Similarity(%q, %q) = %v, want unrelated strings to score low", p[0], p[1], sim)
		}
	}
}

func TestEmptyText(t *testing.T) {
	if sim := Similarity("", "anything"); sim != 0 {
		t.Errorf("empty vs text = %v", sim)
	}
	if sim := Similarity("", ""); sim != 0 {
		t.Errorf("empty vs empty = %v", sim)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Hello, World!", "hello world"},
		{"  a   b ", "a b"},
		{"don't", "don t"},
		{"ABC-123", "abc 123"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q want %q", c.in, got, c.want)
		}
	}
}

// Property: cosine similarity is symmetric and bounded in [0, 1].
func TestSimilarityProperties(t *testing.T) {
	f := func(a, b string) bool {
		s1 := Similarity(a, b)
		s2 := Similarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: embeddings are unit vectors (or zero for empty text).
func TestEmbedNormProperty(t *testing.T) {
	f := func(s string) bool {
		v := Embed(s)
		norm := 0.0
		for _, x := range v {
			norm += x * x
		}
		return math.Abs(norm-1) < 1e-9 || norm == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	a := Embed("Malaysia Airlines")
	b := Embed("Malaysia Airlines")
	if a != b {
		t.Error("embedding is not deterministic")
	}
}

// embedReference is Embed as it was written before the sparse path: one
// string per gram, one hasher per gram, a dense vector throughout. The
// differential tests below hold EmbedSparse, Embed and Sparse.Cosine to it
// bit for bit.
func embedReference(text string) Vector {
	var v Vector
	for _, gram := range trigramsReference(text) {
		h := fnv.New32a()
		_, _ = h.Write([]byte(gram))
		v[int(h.Sum32()%uint32(Dim))]++
	}
	norm := 0.0
	for _, x := range v {
		norm += x * x
	}
	if norm == 0 {
		return v
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
	return v
}

func trigramsReference(text string) []string {
	norm := Normalize(text)
	if norm == "" {
		return nil
	}
	var grams []string
	for _, word := range strings.Fields(norm) {
		grams = append(grams, "#w:"+word)
		padded := "^" + word + "$"
		if len(padded) < 3 {
			grams = append(grams, padded)
			continue
		}
		for i := 0; i+3 <= len(padded); i++ {
			grams = append(grams, padded[i:i+3])
		}
	}
	return grams
}

// checkSparseAgainstReference compares every public path over (a, b) with
// the reference by bit pattern, not tolerance.
func checkSparseAgainstReference(t *testing.T, a, b string) {
	t.Helper()
	ra, rb := embedReference(a), embedReference(b)
	if got := Embed(a); got != ra {
		t.Fatalf("Embed(%q) differs from the reference", a)
	}
	sa := EmbedSparse(a)
	if got := sa.Dense(); got != ra {
		t.Fatalf("EmbedSparse(%q).Dense() differs from the reference", a)
	}
	for i := 1; i < sa.n; i++ {
		if sa.idx[i-1] >= sa.idx[i] {
			t.Fatalf("EmbedSparse(%q): buckets not ascending at %d", a, i)
		}
	}
	want := math.Float64bits(Cosine(ra, rb))
	if got := math.Float64bits(sa.Cosine(&rb)); got != want {
		t.Fatalf("Sparse.Cosine(%q, %q) = %x, dense %x", a, b, got, want)
	}
	if got := math.Float64bits(Similarity(a, b)); got != want {
		t.Fatalf("Similarity(%q, %q) = %x, dense %x", a, b, got, want)
	}
}

var sparseSeeds = [][2]string{
	{"fatal accidents between 2000 and 2014", "fatal accidents"},
	{"Malaysia Airlines", "malaysia  airlines!"},
	{"", "anything"}, {"", ""}, {"a", "A"}, {"x", "x y z"},
	{"O'Brien", "o brien"}, {"ABC-123", "abc 123"},
	{"Zoë Öztürk", "zoe ozturk"}, {"İstanbul ſtraße", "istanbul strasse"},
	{"a\xffb", "a b"}, {"\xe2\x80", " "}, {"世界 人口", "世界"},
	{"the the the the the the the the", "the"},
	{"available seat kilometres flown every week", "available seat miles flown every week"},
}

func TestDifferentialSparse(t *testing.T) {
	for _, p := range sparseSeeds {
		checkSparseAgainstReference(t, p[0], p[1])
		checkSparseAgainstReference(t, p[1], p[0])
	}
	if err := quick.Check(func(a, b string) bool {
		checkSparseAgainstReference(t, a, b)
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func FuzzSparseDot(f *testing.F) {
	for _, p := range sparseSeeds {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkSparseAgainstReference(t, a, b)
	})
}

var sinkScore float64

func BenchmarkEmbed(b *testing.B) {
	const phrase = "fatal accidents between 2000 and 2014"
	v := Embed("fatal accidents between 1985 and 1999")
	b.Run("sparse+cosine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := EmbedSparse(phrase)
			sinkScore = s.Cosine(&v)
		}
	})
	b.Run("reference+cosine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkScore = Cosine(embedReference(phrase), v)
		}
	})
}
