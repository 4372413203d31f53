package prompts

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
)

// The renderers as they were before a prompt was written in one allocation
// of its exact size — fmt and a growing builder, the sample rendered to a
// string of its own — and the per-reader searches Layout replaced, kept word
// for word as the oracles of the differential tests below.

func referenceOneShot(maskedClaim, valueType, schemaSQL, sample, context string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s%s%s%s, you must think about a question that generates \"x\" as the answer and then generate a SQL query to answer that question.\n",
		ClaimOpen, maskedClaim, ClaimClose, valueType, TypeClose)
	b.WriteString(SchemaIntro + "\n")
	b.WriteString(schemaSQL)
	b.WriteString("To query for percentages use the format \"SELECT (SELECT COUNT(column_name) FROM table WHERE equality_predicates) * 100.0 / (SELECT COUNT(column_name) FROM table WHERE equality_predicates)\". Other queries are of format \"SELECT aggregate_function(column_name) FROM table WHERE equality_predicates\".\n")
	b.WriteString("Wrap the SQL in " + SQLFence + " ```.\n")
	if sample != "" {
		b.WriteString(sample + "\n")
	}
	b.WriteString(ContextIntro + "\n")
	b.WriteString(context + "\n")
	return b.String()
}

func referenceSample(maskedClaim, query string) string {
	return fmt.Sprintf("%s \"%s\", to find the value for \"x\", generated SQL query would be \"%s\".",
		SampleIntro, maskedClaim, query)
}

func referenceAgent(maskedClaim, valueType, schemaSQL, sample, context string) string {
	var b strings.Builder
	b.WriteString(referenceOneShot(maskedClaim, valueType, schemaSQL, sample, context))
	b.WriteString("\n" + AgentMarker + "\n")
	fmt.Fprintf(&b, "- %s: given a column name, returns the distinct values stored in that column.\n", ToolUniqueValues)
	fmt.Fprintf(&b, "- %s: given a SQL query, executes it on the data and returns the result together with feedback comparing it to the claimed value.\n", ToolQuery)
	b.WriteString(`Use the following format:
Thought: reason about what to do next
Action: the tool to use
Action Input: the input to the tool
Observation: the result of the action
... (Thought/Action/Action Input/Observation can repeat)
Thought: I now know the final answer.
Final Answer: the value of "x"
`)
	return b.String()
}

// referenceAgentRun is the agent method's base prompt: the run line, then
// the agent prompt.
func referenceAgentRun(run, maskedClaim, valueType, schemaSQL, sample, context string) string {
	return fmt.Sprintf("Run: %s\n%s", run, referenceAgent(maskedClaim, valueType, schemaSQL, sample, context))
}

func referenceHasSample(prompt string) bool { return strings.Contains(prompt, SampleIntro) }

func referenceExtractClaim(prompt string) (masked, valueType string, ok bool) {
	masked, ok = ExtractSection(prompt, ClaimOpen, ClaimClose)
	if !ok {
		return "", "", false
	}
	valueType, ok = ExtractSection(prompt, ClaimClose, TypeClose)
	if !ok {
		return masked, "", true
	}
	return masked, valueType, true
}

func referenceExtractContext(prompt string) string {
	_, rest, found := strings.Cut(prompt, ContextIntro)
	if !found {
		return ""
	}
	rest = strings.TrimLeft(rest, "\n")
	if idx := strings.Index(rest, "\n\n"); idx >= 0 {
		rest = rest[:idx]
	}
	return strings.TrimSpace(rest)
}

// generatorCorpora returns every data generator's corpus at one seed.
func generatorCorpora(t testing.TB, seed int64) map[string][]*claim.Document {
	t.Helper()
	corpora := map[string][]*claim.Document{}
	add := func(name string, docs []*claim.Document, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		corpora[name] = docs
	}
	docs, err := data.AggChecker(seed)
	add("AggChecker", docs, err)
	docs, err = data.TabFact(seed)
	add("TabFact", docs, err)
	docs, err = data.WikiText(seed)
	add("WikiText", docs, err)
	docs, err = data.UnitConv(seed, true)
	add("UnitConv aligned", docs, err)
	docs, err = data.UnitConv(seed, false)
	add("UnitConv converted", docs, err)
	flat, norm, err := data.JoinBench(seed)
	add("JoinBench flat", flat, err)
	add("JoinBench normalized", norm, nil)
	rb, err := data.RouteBench(seed)
	if err != nil {
		t.Fatal(err)
	}
	add("RouteBench", rb.Docs, nil)
	return corpora
}

// TestDifferentialPromptRender holds OneShot, Sample and both Fill
// renderings to the fmt renderers over every claim of every generator
// corpus: masked and unmasked, with and without context, with and without a
// few-shot sample (the document's previous claim, as the pipeline harvests
// one). Every prompt's Layout is held to the searches it replaced too.
func TestDifferentialPromptRender(t *testing.T) {
	prompts := 0
	for name, docs := range generatorCorpora(t, 41) {
		for _, d := range docs {
			schema := d.Data.Schema()
			var sample *Example
			for _, c := range d.Claims {
				masked, maskedCtx := c.Masked()
				for _, text := range [][2]string{{masked, maskedCtx}, {c.Sentence, c.Context}} {
					for _, ctx := range []string{text[1], ""} {
						for _, ex := range []*Example{nil, sample} {
							block := ""
							if ex != nil {
								block = referenceSample(ex.MaskedClaim, ex.Query)
								if got := Sample(ex.MaskedClaim, ex.Query); got != block {
									t.Fatalf("%s %s: Sample = %q, want %q", name, c.ID, got, block)
								}
							}
							want := referenceOneShot(text[0], c.ValueType(), schema, block, ctx)
							wantRun := referenceAgentRun("1f3a", text[0], c.ValueType(), schema, block, ctx)
							fill := Fill{Claim: text[0], ValueType: c.ValueType(), Schema: schema, Sample: ex, Context: ctx}
							for _, got := range [][2]string{
								{OneShot(text[0], c.ValueType(), schema, block, ctx), want},
								{fill.OneShot(), want},
								{fill.Agent("1f3a"), wantRun},
							} {
								if got[0] != got[1] {
									t.Fatalf("%s %s:\n got %q\nwant %q", name, c.ID, got[0], got[1])
								}
							}
							checkLayout(t, want)
							checkLayout(t, wantRun)
							prompts++
						}
					}
				}
				sample = &Example{MaskedClaim: masked, Query: c.Gold.Query}
			}
		}
	}
	if prompts < 4000 {
		t.Fatalf("only %d prompts compared; the corpora should give more", prompts)
	}
	t.Logf("%d prompts compared", prompts)
}

// checkLayout holds Locate(text), and its Prefix at every cut around every
// marker occurrence, to the searches the readers made before.
func checkLayout(t *testing.T, text string) {
	t.Helper()
	cuts := []int{0, len(text)}
	for _, marker := range []string{ClaimOpen, ClaimClose, TypeClose, SampleIntro, ContextIntro, AgentMarker, "\n\n"} {
		for from := 0; ; {
			i := strings.Index(text[from:], marker)
			if i < 0 {
				break
			}
			at := from + i
			for _, n := range []int{at - 1, at, at + 1, at + len(marker) - 1, at + len(marker), at + len(marker) + 1} {
				if n >= 0 && n <= len(text) {
					cuts = append(cuts, n)
				}
			}
			from = at + 1
		}
	}
	whole := Locate(text)
	for _, n := range cuts {
		prefix := text[:n]
		l := whole.Prefix(n)
		if fresh := Locate(prefix); l != fresh {
			t.Fatalf("Prefix(%d) of %q = %+v, Locate of the prefix %+v", n, text, l, fresh)
		}
		gotM, gotT, gotOK := l.Claim()
		wantM, wantT, wantOK := referenceExtractClaim(prefix)
		if gotM != wantM || gotT != wantT || gotOK != wantOK {
			t.Fatalf("Claim of %q = %q %q %v, the search %q %q %v", prefix, gotM, gotT, gotOK, wantM, wantT, wantOK)
		}
		if m, vt, ok := ExtractClaim(prefix); m != wantM || vt != wantT || ok != wantOK {
			t.Fatalf("ExtractClaim of %q = %q %q %v, the search %q %q %v", prefix, m, vt, ok, wantM, wantT, wantOK)
		}
		want := referenceExtractContext(prefix)
		if got := l.Context(); got != want {
			t.Fatalf("Context of %q = %q, the search %q", prefix, got, want)
		}
		if got := ExtractContext(prefix); got != want {
			t.Fatalf("ExtractContext of %q = %q, the search %q", prefix, got, want)
		}
		if l.HasSample() != referenceHasSample(prefix) || l.IsAgent() != strings.Contains(prefix, AgentMarker) {
			t.Fatalf("Layout of %q: sample %v agent %v", prefix, l.HasSample(), l.IsAgent())
		}
	}
}

// TestDifferentialPromptLayout covers what rendered prompts do not: markers
// missing, repeated, out of order and overlapping.
func TestDifferentialPromptLayout(t *testing.T) {
	for _, text := range []string{
		"", "no markers here", ClaimOpen, ClaimClose, ClaimOpen + ClaimClose,
		ClaimOpen + "c x." + ClaimClose + "numeric" + TypeClose,
		ClaimOpen + "c x." + ClaimClose + "numeric", // no TypeClose
		ClaimClose + "early" + TypeClose + ClaimOpen + "c x." + ClaimClose + "late" + TypeClose,
		`Given the claim " where "x" is a "numeric" value`, // ClaimClose overlaps ClaimOpen's quote
		`Given the claim " where "x" is a "c" where "x" is a "t" value`,
		TypeClose + ClaimOpen + "c" + ClaimClose + "t",
		ContextIntro, ContextIntro + "\n\n\n  para  \n\nnext", ContextIntro + " same line\ncont\n\nafter",
		AgentMarker + SampleIntro + ContextIntro + "ctx" + ClaimOpen + "c" + ClaimClose + "t" + TypeClose,
		"Run: 0\n" + referenceAgent("c x.", "numeric", "CREATE TABLE t (a TEXT);\n", referenceSample("s x.", "SELECT 1"), "ctx") +
			"\nThought: t\nAction: database_querying\nAction Input: SELECT 1\nObservation: " + ContextIntro + " " + SampleIntro,
	} {
		checkLayout(t, text)
	}
}

// TestOneShotAllocCeiling: a prompt is one allocation of its exact size,
// whichever way it is rendered.
func TestOneShotAllocCeiling(t *testing.T) {
	const masked, ctx = "Malaysia Airlines recorded x fatal accidents between 2000 and 2014.", "Some context. Malaysia Airlines recorded x fatal accidents between 2000 and 2014."
	block := Sample("Aer Lingus recorded x incidents.", `SELECT "incidents_85_99" FROM "airlines" WHERE "airline" = 'Aer Lingus'`)
	fill := Fill{Claim: masked, ValueType: "numeric", Schema: schemaSQL, Sample: &Example{MaskedClaim: "m x.", Query: "SELECT 1"}, Context: ctx}
	for name, render := range map[string]func() string{
		"OneShot":        func() string { return OneShot(masked, "numeric", schemaSQL, "", ctx) },
		"OneShot sample": func() string { return OneShot(masked, "numeric", schemaSQL, block, ctx) },
		"Fill.OneShot":   fill.OneShot,
		"Fill.Agent":     func() string { return fill.Agent("0") },
		"Sample":         func() string { return Sample(masked, "SELECT 1") },
	} {
		if render() == "" {
			t.Fatalf("%s rendered nothing", name)
		}
		if allocs := testing.AllocsPerRun(200, func() { _ = render() }); allocs > 1 {
			t.Errorf("%s: %.0f allocations per prompt, ceiling 1", name, allocs)
		}
	}
}
