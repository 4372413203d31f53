package sim

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompts"
)

// readPrompt fuses what two separate passes over a one-shot prompt computed
// before: hash/fnv over the model name and the flattened prompt (the seed of
// the completion's randomness) and llm.CountMessageTokens (its prompt
// tokens). checkReadPrompt holds it to both.
func checkReadPrompt(t *testing.T, m *Model, msgs []llm.Message) {
	t.Helper()
	prompt := llm.PromptText(msgs)
	h, tokens := m.readPrompt(msgs, prompt)
	ref := fnv.New64a()
	_, _ = ref.Write([]byte(m.profile.Name))
	_, _ = ref.Write([]byte(prompt))
	if want := ref.Sum64(); h != want {
		t.Fatalf("%s: seed hash of %q = %x, hash/fnv %x", m.profile.Name, prompt, h, want)
	}
	if want := llm.CountMessageTokens(msgs); tokens != want {
		t.Fatalf("%s: prompt tokens of %q = %d, CountMessageTokens %d", m.profile.Name, prompt, tokens, want)
	}
}

// promptTexts are the prompts the fused pass must read exactly: rendered
// one-shot and agent prompts, and text with every kind of space and byte the
// word count distinguishes.
func promptTexts(t testing.TB) []string {
	db := simDB(t)
	const masked = "Malaysia Airlines recorded x fatal accidents between 2000 and 2014."
	return []string{
		"", " ", "x", "a  b\tc\nd\v\fe\r", "\u0085", "a\u0085b", "a\u00a0b", "a\u2003b\u3000c", "a\u200bb",
		"caf\u00e9 \xff", "\xff", "\xe2\x80", "trailing ascii then \u00e9",
		prompts.OneShot(masked, "numeric", db.Schema(), prompts.Sample("m x.", "SELECT 1"), "Some context. "+masked),
		prompts.OneShot("Aerol\u00edneas Argentinas recorded x incidents.", "numeric", db.Schema(), "", "A\u00f1o\u00a02014."),
		agentPrompt(db, masked, "ctx"),
	}
}

// wordAlphabet spans ASCII words and spaces, the Latin-1 spaces, wider
// Unicode spaces, a non-space format character, letters and invalid bytes.
var wordAlphabet = []string{
	"a", "Z", "9", ".", "\"", " ", "\t", "\n", "\r", "\v", "\f",
	"\u0085", "\u00a0", "\u1680", "\u2003", "\u2028", "\u3000", "\u200b", "\u00e9", "\u4e16", "\xff", "\xc2",
}

func TestDifferentialCompletionSeed(t *testing.T) {
	for _, name := range []string{llm.ModelGPT35, llm.ModelGPT4o, llm.ModelGPT41} {
		m, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range promptTexts(t) {
			checkReadPrompt(t, m, []llm.Message{{Role: llm.RoleUser, Content: p}})
		}
		// A conversation is hashed joined and counted per message.
		checkReadPrompt(t, m, []llm.Message{{Role: llm.RoleSystem, Content: "sys"}, {Role: llm.RoleUser, Content: "a b\nc"}})
		checkReadPrompt(t, m, nil)
	}
}

func TestDifferentialPromptTokens(t *testing.T) {
	m, err := New(llm.ModelGPT35, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for n := rng.Intn(48); n > 0; n-- {
			b.WriteString(wordAlphabet[rng.Intn(len(wordAlphabet))])
		}
		checkReadPrompt(t, m, []llm.Message{{Role: llm.RoleUser, Content: b.String()}})
	}
}

func FuzzPromptTokens(f *testing.F) {
	for _, p := range promptTexts(f) {
		f.Add(p)
	}
	m, err := New(llm.ModelGPT4o, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkReadPrompt(t, m, []llm.Message{{Role: llm.RoleUser, Content: text}})
	})
}
