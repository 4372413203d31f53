// Package prompts holds the prompt templates of CEDAR's verification
// methods: the one-shot claim-to-SQL template of Figure 3 and the
// ReAct agent template of Section 5.3. The templates live in their own
// package because both the verification pipeline (which fills them) and the
// simulated models (which read them, the way a real LLM reads the prompt)
// need the same markers.
package prompts

import "strings"

// Markers used to delimit prompt sections. Extraction in the simulated
// models keys on these exact strings.
const (
	ClaimOpen    = `Given the claim "`
	ClaimClose   = `" where "x" is a "`
	TypeClose    = `" value`
	SchemaIntro  = "You must use the schema of the following tables:"
	SampleIntro  = "For example, given the claim"
	ContextIntro = "The following context information might help to form the SQL query."
	SQLFence     = "```sql"

	// AgentMarker distinguishes agent prompts from one-shot prompts.
	AgentMarker = "You have access to the following tools:"
	// ToolUniqueValues lets the agent list distinct values of a column.
	ToolUniqueValues = "unique_column_values"
	// ToolQuery lets the agent run a SQL query and receive comparative
	// feedback against the claim value.
	ToolQuery = "database_querying"
)

// The templates' fixed text between placeholders, each run of it one
// constant, so that a prompt is a short list of strings whose length is
// known before a byte of it is written.
const (
	// taskTail follows the {type} placeholder: the rest of the task sentence
	// and the schema heading.
	taskTail = TypeClose + ", you must think about a question that generates \"x\" as the answer and then generate a SQL query to answer that question.\n" +
		SchemaIntro + "\n"
	// instructions follows the schema: the query-format paragraph and the
	// fence instruction.
	instructions = "To query for percentages use the format \"SELECT (SELECT COUNT(column_name) FROM table WHERE equality_predicates) * 100.0 / (SELECT COUNT(column_name) FROM table WHERE equality_predicates)\". Other queries are of format \"SELECT aggregate_function(column_name) FROM table WHERE equality_predicates\".\n" +
		"Wrap the SQL in " + SQLFence + " ```.\n"
	contextHead = ContextIntro + "\n"

	// The few-shot block around its claim and query.
	sampleOpen  = SampleIntro + " \""
	sampleMid   = "\", to find the value for \"x\", generated SQL query would be \""
	sampleClose = "\"."

	// agentTools follows the one-shot text in the agent prompt: the tool
	// descriptions and the thought/action protocol.
	agentTools = "\n" + AgentMarker + "\n" +
		"- " + ToolUniqueValues + ": given a column name, returns the distinct values stored in that column.\n" +
		"- " + ToolQuery + ": given a SQL query, executes it on the data and returns the result together with feedback comparing it to the claimed value.\n" +
		`Use the following format:
Thought: reason about what to do next
Action: the tool to use
Action Input: the input to the tool
Observation: the result of the action
... (Thought/Action/Action Input/Observation can repeat)
Thought: I now know the final answer.
Final Answer: the value of "x"
`
	runOpen = "Run: "
)

// pieces is a prompt as the strings it concatenates. String sums their
// lengths and writes them into one builder grown to that sum, so a prompt
// costs one allocation of exactly its size. The largest prompt, an agent's
// with a run line and a sample, has 20 pieces.
type pieces struct {
	s [20]string
	n int
}

func (p *pieces) add(s ...string) {
	for _, x := range s {
		p.s[p.n] = x
		p.n++
	}
}

func (p *pieces) String() string {
	n := 0
	for _, s := range p.s[:p.n] {
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range p.s[:p.n] {
		b.WriteString(s)
	}
	return b.String()
}

// head adds the one-shot prompt up to its {sample} placeholder.
func (p *pieces) head(maskedClaim, valueType, schemaSQL string) {
	p.add(ClaimOpen, maskedClaim, ClaimClose, valueType, taskTail, schemaSQL, instructions)
}

// example adds the few-shot block of a solved claim, without a line end.
func (p *pieces) example(maskedClaim, query string) {
	p.add(sampleOpen, maskedClaim, sampleMid, query, sampleClose)
}

// tail adds the context section that ends the one-shot prompt.
func (p *pieces) tail(context string) {
	p.add(contextHead, context, "\n")
}

// OneShot renders the one-shot claim-to-SQL prompt of Figure 3.
// maskedClaim is the claim sentence with the value obfuscated as "x";
// valueType is "numeric" or empty; schemaSQL is the CREATE TABLE rendering
// of the database; sample is a previously solved claim/query pair rendered
// by Sample (empty when none is available); context is the masked claim
// paragraph. It is Fill.OneShot for a caller that holds the sample as text;
// the verification methods use Fill, which writes the sample in place.
func OneShot(maskedClaim, valueType, schemaSQL, sample, context string) string {
	var p pieces
	p.head(maskedClaim, valueType, schemaSQL)
	if sample != "" {
		p.add(sample, "\n")
	}
	p.tail(context)
	return p.String()
}

// Sample renders the few-shot sample block included in prompts once a claim
// has been verified successfully (the {sample} placeholder of Figure 3).
func Sample(maskedClaim, query string) string {
	var p pieces
	p.example(maskedClaim, query)
	return p.String()
}

// Example is a previously solved claim and the query that verified it: the
// few-shot sample of Figure 3.
type Example struct {
	MaskedClaim string
	Query       string
}

// Fill is the templates' placeholders as the verification methods hold
// them. Its one-shot prompt is OneShot's with Sample's block, the sample
// written straight into the prompt instead of rendered on its own first.
type Fill struct {
	Claim     string   // the claim sentence, value masked as "x" (or not, in the ablation)
	ValueType string   // "numeric" or empty
	Schema    string   // the CREATE TABLE rendering of the database
	Sample    *Example // the few-shot sample; nil when none is available
	Context   string   // the claim paragraph
}

func (f *Fill) oneShot(p *pieces) {
	p.head(f.Claim, f.ValueType, f.Schema)
	if f.Sample != nil {
		p.example(f.Sample.MaskedClaim, f.Sample.Query)
		p.add("\n")
	}
	p.tail(f.Context)
}

// OneShot renders the one-shot prompt.
func (f *Fill) OneShot() string {
	var p pieces
	f.oneShot(&p)
	return p.String()
}

// Agent renders the base prompt of the ReAct agent: a "Run: <run>" line (the
// per-run nonce that lets seeded retries sample different trajectories),
// then the one-shot task description extended with tool descriptions and the
// thought/action protocol instructions (the LangChain-style ReAct template).
func (f *Fill) Agent(run string) string {
	var p pieces
	p.add(runOpen, run, "\n")
	f.oneShot(&p)
	p.add(agentTools)
	return p.String()
}

// ExtractSection returns the text between the first occurrence of open and
// the following occurrence of close. ok is false when either marker is
// missing.
func ExtractSection(text, open, close string) (string, bool) {
	_, rest, found := strings.Cut(text, open)
	if !found {
		return "", false
	}
	inner, _, found := strings.Cut(rest, close)
	if !found {
		return "", false
	}
	return inner, true
}

// ExtractClaim pulls the masked claim and value type out of a prompt.
func ExtractClaim(prompt string) (masked, valueType string, ok bool) {
	l := Locate(prompt)
	return l.Claim()
}

// ExtractContext pulls the context paragraph out of a prompt (everything
// after the context marker up to the next blank line or end).
func ExtractContext(prompt string) string {
	l := Locate(prompt)
	return l.Context()
}

// Layout is where a prompt's markers are, found once for every reader: the
// simulated models read the claim, the sample, the context and the agent
// marker of one prompt from one Layout, where each reader used to search
// the text again.
type Layout struct {
	text string
	// Byte offsets of first occurrences, -1 when absent.
	claimOpen  int // ClaimOpen
	claimClose int // ClaimClose, the first after ClaimOpen
	typeOpen   int // ClaimClose, the first anywhere: the value type follows it
	typeClose  int // TypeClose, the first after typeOpen's marker
	sample     int // SampleIntro
	context    int // ContextIntro
	agent      int // AgentMarker
}

// Locate finds the markers of text.
func Locate(text string) Layout {
	l := Layout{
		text:       text,
		claimOpen:  strings.Index(text, ClaimOpen),
		claimClose: -1,
		typeOpen:   strings.Index(text, ClaimClose),
		typeClose:  -1,
		sample:     strings.Index(text, SampleIntro),
		context:    strings.Index(text, ContextIntro),
		agent:      strings.Index(text, AgentMarker),
	}
	if l.typeOpen >= 0 {
		l.typeClose = indexFrom(text, TypeClose, l.typeOpen+len(ClaimClose))
	}
	if l.claimOpen >= 0 {
		// The first ClaimClose is almost always past ClaimOpen already.
		if from := l.claimOpen + len(ClaimOpen); l.typeOpen >= from {
			l.claimClose = l.typeOpen
		} else {
			l.claimClose = indexFrom(text, ClaimClose, from)
		}
	}
	return l
}

// indexFrom is the offset of the first sep in text at or after from, or -1.
func indexFrom(text, sep string, from int) int {
	if i := strings.Index(text[from:], sep); i >= 0 {
		return from + i
	}
	return -1
}

// Text is the located text.
func (l *Layout) Text() string { return l.text }

// Prefix is the Layout of l.Text()[:n], found without searching again: a
// first occurrence in the prefix is the text's first occurrence, if that one
// ends within it, and there is none otherwise.
func (l *Layout) Prefix(n int) Layout {
	cut := func(at int, marker string) int {
		if at+len(marker) > n {
			return -1
		}
		return at
	}
	return Layout{
		text:       l.text[:n],
		claimOpen:  cut(l.claimOpen, ClaimOpen),
		claimClose: cut(l.claimClose, ClaimClose),
		typeOpen:   cut(l.typeOpen, ClaimClose),
		typeClose:  cut(l.typeClose, TypeClose),
		sample:     cut(l.sample, SampleIntro),
		context:    cut(l.context, ContextIntro),
		agent:      cut(l.agent, AgentMarker),
	}
}

// Claim is the masked claim, between ClaimOpen and the next ClaimClose, and
// the value type, between the first ClaimClose and the next TypeClose. ok is
// false without the claim; the value type is empty without its markers.
func (l *Layout) Claim() (masked, valueType string, ok bool) {
	if l.claimOpen < 0 || l.claimClose < 0 {
		return "", "", false
	}
	masked = l.text[l.claimOpen+len(ClaimOpen) : l.claimClose]
	if l.typeClose < 0 {
		return masked, "", true
	}
	return masked, l.text[l.typeOpen+len(ClaimClose) : l.typeClose], true
}

// Context is the paragraph that follows the context marker, trimmed, up to
// the next blank line or the end; empty without the marker.
func (l *Layout) Context() string {
	if l.context < 0 {
		return ""
	}
	rest := strings.TrimLeft(l.text[l.context+len(ContextIntro):], "\n")
	if idx := strings.Index(rest, "\n\n"); idx >= 0 {
		rest = rest[:idx]
	}
	return strings.TrimSpace(rest)
}

// HasSample reports whether the prompt contains a few-shot sample.
func (l *Layout) HasSample() bool { return l.sample >= 0 }

// IsAgent reports whether the prompt is an agent prompt.
func (l *Layout) IsAgent() bool { return l.agent >= 0 }

// ExtractSQL pulls the first fenced SQL block out of a model response. It
// tolerates a bare ``` fence and, failing that, a line starting with SELECT,
// the way CEDAR's post-processing extracts queries from chatty responses.
func ExtractSQL(response string) (string, bool) {
	if inner, ok := ExtractSection(response, SQLFence, "```"); ok {
		q := strings.TrimSpace(inner)
		if q != "" {
			return q, true
		}
	}
	for _, line := range strings.Split(response, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(strings.ToUpper(trimmed), "SELECT") {
			return trimmed, true
		}
	}
	return "", false
}
