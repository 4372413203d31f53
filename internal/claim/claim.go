// Package claim defines the core domain model of CEDAR: documents, claims,
// and verification outcomes (Definitions 2.1–2.6 of the paper).
package claim

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/textutil"
)

// Claim is a verifiable statement: a sentence containing a claim value at a
// known token span, plus surrounding context (Definition 2.2).
type Claim struct {
	// ID uniquely identifies the claim within its benchmark.
	ID string
	// Sentence is the claim sentence.
	Sentence string
	// Span is the token position of the claim value within Sentence.
	Span textutil.Span
	// Context is the paragraph containing the claim sentence.
	Context string
	// Value is the claimed value as it appears in the text.
	Value string

	// Gold holds evaluation-only ground truth. Verification methods must
	// never read it; it exists so benchmarks can score results.
	Gold Gold

	// Result is filled in by verification.
	Result Result
}

// New builds a claim from a sentence, the claimed value as it appears in
// the sentence, and the surrounding context paragraph, locating the value's
// token span automatically. It is the shared constructor behind
// cedar.NewClaim and the cedar-serve wire decoder, so every ingress path
// (library, CLI, HTTP) produces identical claim structures.
func New(id, sentence, value, context string) (*Claim, error) {
	span, ok := textutil.FindValueSpan(sentence, value)
	if !ok {
		return nil, fmt.Errorf("claim: value %q does not occur in sentence %q", value, sentence)
	}
	if context == "" {
		context = sentence
	}
	if !strings.Contains(context, sentence) {
		context = context + " " + sentence
	}
	return &Claim{
		ID:       id,
		Sentence: sentence,
		Span:     span,
		Context:  context,
		Value:    value,
	}, nil
}

// Gold is ground truth attached to generated claims for scoring.
type Gold struct {
	// Query is a SQL query representing the claim semantics.
	Query string
	// Correct is whether the claim is actually correct.
	Correct bool
}

// Terminal Result.Method labels for claims no method verified.
// MethodUnverified marks semantic exhaustion (every translation was
// implausible); MethodFailed marks transport loss (the last attempt died on
// a provider error, recorded in Result.Failure) — the claim never got a full
// verification, so scoring must not treat its default verdict as a real one.
const (
	MethodUnverified = "unverified"
	MethodFailed     = "failed"
)

// Result is the verification outcome for one claim (Definition 2.6).
type Result struct {
	// Verified is true when some verification method produced a plausible
	// query for the claim.
	Verified bool
	// Correct is the verdict: true when the claim is marked correct.
	// Unverifiable claims are marked correct by default, per Section 4.
	Correct bool
	// Query is the SQL query used for verification (empty if none).
	Query string
	// Executable records that at least one attempted translation parsed
	// and ran, even if it failed the plausibility gate: a query whose
	// result is empty or not a single cell (sqldb.ErrNotScalar) still
	// counts, one that errors does not. Per Section 4, claims that remain
	// unverified but had executable queries are marked incorrect; only
	// claims with no executable query at all default to correct.
	Executable bool
	// Method names the verification approach that succeeded.
	Method string
	// Attempts counts how many method invocations were spent on the claim.
	Attempts int
	// Failure names the transport-error class of the last failed attempt
	// ("rate_limited", "timeout", "transient", "permanent", "circuit_open")
	// so an unverified claim can be distinguished as "provider failed us"
	// rather than "every translation was implausible". Empty for semantic
	// failures and cleared by each new attempt.
	Failure string
	// Trace is a human-readable log of the last verification attempt: the
	// model response for one-shot methods, the thought/action/observation
	// transcript for agents (the Figure 4 view of the paper).
	Trace string
}

// IsNumeric reports whether the claim value is numeric (Definition 2.2
// distinguishes numeric from textual claims).
func (c *Claim) IsNumeric() bool { return textutil.IsNumeric(c.Value) }

// ValueType returns the {type} placeholder content for prompt templates:
// "numeric" for numeric claims and the empty string otherwise, as specified
// in Section 5.2.
func (c *Claim) ValueType() string { return valueType(c.IsNumeric()) }

func valueType(numeric bool) string {
	if numeric {
		return "numeric"
	}
	return ""
}

// Masked returns the claim sentence with the value span obfuscated and the
// context paragraph with the sentence replaced by its masked form
// (Algorithm 4).
func (c *Claim) Masked() (sentence, context string) {
	masked := textutil.MaskSpan(c.Sentence, c.Span)
	ctx, _ := textutil.MaskInContext(c.Context, c.Sentence, masked)
	return masked, ctx
}

// Inputs are the constants of a claim that every verification attempt on it
// reads: the Algorithm 4 masking, the {type} placeholder and the parsed claim
// value. They are derived from the claim, never stored on it: a pipeline run
// derives them once per claim and hands them to that run's attempts through
// verify.Invocation, so a claim edited between two runs is read afresh and
// nothing a run computed stays behind on the caller's corpus.
type Inputs struct {
	// Masked and MaskedContext are what Masked returns.
	Masked, MaskedContext string
	// Numeric reports whether the claim value is numeric; Number is then
	// its parsed form.
	Numeric bool
	Number  textutil.Number
}

// ValueType is what Claim.ValueType returns.
func (in *Inputs) ValueType() string { return valueType(in.Numeric) }

// Inputs derives the claim's attempt inputs.
func (c *Claim) Inputs() Inputs {
	var in Inputs
	in.Masked, in.MaskedContext = c.Masked()
	in.Number, in.Numeric = textutil.ParseNumeric(c.Value)
	return in
}

// Document is a text document whose claims refer to an attached relational
// database (Definition 2.1).
type Document struct {
	// ID uniquely identifies the document within its benchmark.
	ID string
	// Title is a human-readable headline.
	Title string
	// Domain labels the document source category (538, StackOverflow,
	// NYTimes, Wikipedia); Figure 7 groups documents by it.
	Domain string
	// Claims are the claims extracted from the document.
	Claims []*Claim
	// Data is the relational database the claims refer to.
	Data *sqldb.Database
}

// String summarizes the document.
func (d *Document) String() string {
	return fmt.Sprintf("doc %s (%s): %d claims over db %s", d.ID, d.Domain, len(d.Claims), d.Data.Name)
}

// CloneDocuments deep-copies a corpus (documents and claims, sharing the
// immutable databases) so multiple systems can verify the same benchmark
// without seeing each other's annotations.
func CloneDocuments(docs []*Document) []*Document {
	out := make([]*Document, 0, len(docs))
	for _, d := range docs {
		nd := *d
		nd.Claims = make([]*Claim, 0, len(d.Claims))
		for _, c := range d.Claims {
			cc := *c
			cc.Result = Result{}
			nd.Claims = append(nd.Claims, &cc)
		}
		out = append(out, &nd)
	}
	return out
}

// TotalClaims returns the number of claims across documents.
func TotalClaims(docs []*Document) int {
	n := 0
	for _, d := range docs {
		n += len(d.Claims)
	}
	return n
}
