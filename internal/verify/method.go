package verify

import (
	"fmt"

	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/llm/resilience"
	"repro/internal/prompts"
	"repro/internal/sqldb"
	"repro/internal/trace"
)

// Sample is a successfully translated claim used for few-shot learning (the
// {sample} placeholder of Figure 3), in the form the prompt templates write
// it from.
type Sample = prompts.Example

// Invocation bundles the per-attempt inputs of one method invocation.
type Invocation struct {
	// Sample is an optional few-shot example (nil on harvest passes).
	Sample *Sample
	// Temperature controls model randomization so retries can differ
	// (Section 7.1 uses 0 first, then 0.25/0.5).
	Temperature float64
	// Seed identifies this attempt for sampling. The pipeline derives it
	// from (document ID, claim index, method name, try number) via
	// llm.SplitSeed, which makes temperature > 0 attempts reproducible
	// independent of execution order — the keystone of deterministic
	// claim-level parallelism. Ignored at temperature 0.
	Seed int64
	// Attempt is the trace identity of this invocation — the same
	// (doc, claim, method, try) tuple the Seed is split from. Copied onto
	// every llm.Request the method issues so middleware spans attribute to
	// the right attempt; the zero Key is fine for untraced callers.
	Attempt trace.Key
	// Tracer, when enabled, receives the attempt's terminal outcome span.
	Tracer *trace.Tracer
	// Inputs are the claim's attempt inputs (claim.Inputs), derived by the
	// caller once for every attempt it will make on the claim in this run.
	// Nil derives them on the spot — profiling, ablations and tests, which
	// make one attempt per claim.
	Inputs *claim.Inputs
}

// inputs returns the claim inputs the invocation carries, deriving them when
// the caller prepared none.
func (inv Invocation) inputs(c *claim.Claim) *claim.Inputs {
	if inv.Inputs != nil {
		return inv.Inputs
	}
	in := c.Inputs()
	return &in
}

// Method is one verification approach instantiated with a specific model —
// one point in CEDAR's method space (one-shot or agent, times model tier).
type Method interface {
	// Name identifies the method for scheduling and reporting.
	Name() string
	// ModelName is the underlying model identifier (for cost accounting).
	ModelName() string
	// Translate attempts to produce a SQL query representing the claim.
	Translate(c *claim.Claim, db *sqldb.Database, inv Invocation) (string, error)
}

// Attempt applies one unseeded method invocation to one claim — the
// convenience form used by profiling and ablations, where temperature-0
// determinism makes seeds irrelevant.
func Attempt(m Method, c *claim.Claim, db *sqldb.Database, sample *Sample, temperature float64) bool {
	return AttemptWith(m, c, db, Invocation{Sample: sample, Temperature: temperature})
}

// AttemptWith applies one method invocation to one claim, implementing the
// body of Algorithm 2's loop: translate, execute the translation once, gate
// its result for plausibility, and on success validate the claim value
// against it and record the outcome on the claim. It mutates only c, so
// concurrent attempts on distinct claims are safe.
func AttemptWith(m Method, c *claim.Claim, db *sqldb.Database, inv Invocation) bool {
	c.Result.Attempts++
	c.Result.Failure = ""
	inv.Inputs = inv.inputs(c)
	query, err := m.Translate(c, db, inv)
	if err != nil {
		// Transport failures (exhausted retries, open circuits) are recorded
		// on the claim so the pipeline can label it "failed" rather than
		// silently unverified; semantic failures leave Failure empty.
		if class, ok := resilience.Classify(err); ok {
			c.Result.Failure = class
			inv.outcome(class)
		} else {
			inv.outcome(trace.OutcomeImplausible)
		}
		return false
	}
	c.Result.Query = query // last attempted query, kept even on failure
	// The database cannot change under one attempt, so one execution feeds
	// Executable and both gates.
	res, err := sqldb.QueryScalar(db, query)
	out := cell{res: res, err: err, value: c.Value, numeric: inv.Inputs.Numeric, number: inv.Inputs.Number}
	if out.executable() {
		c.Result.Executable = true
	}
	if !out.plausible() {
		inv.outcome(trace.OutcomeImplausible)
		return false
	}
	correct, err := out.correct()
	if err != nil {
		inv.outcome(trace.OutcomeImplausible)
		return false
	}
	c.Result.Verified = true
	c.Result.Correct = correct
	c.Result.Method = m.Name()
	inv.outcome(trace.OutcomeVerified)
	return true
}

// outcome records the attempt's terminal verdict span: "verified",
// "implausible" (the translation executed but failed a gate, or the model
// answered unusably), or a transport-error class.
func (inv Invocation) outcome(verdict string) {
	if !inv.Tracer.Enabled() {
		return
	}
	inv.Tracer.Record(trace.Span{Key: inv.Attempt, Kind: trace.KindOutcome, Outcome: verdict})
}

// MakeSample converts a successfully verified claim into a few-shot sample;
// in are the claim's inputs as its attempts read them.
func MakeSample(c *claim.Claim, in *claim.Inputs) *Sample {
	return &Sample{MaskedClaim: in.Masked, Query: c.Result.Query}
}

// promptFill assembles the template placeholders shared by both methods: the
// claim text and context (masked unless the ablation turns masking off), the
// {type} placeholder, the database schema and the few-shot sample.
func promptFill(c *claim.Claim, db *sqldb.Database, inv Invocation, masked bool) prompts.Fill {
	in := inv.inputs(c)
	f := prompts.Fill{ValueType: in.ValueType(), Schema: db.Schema(), Sample: inv.Sample}
	if masked {
		f.Claim, f.Context = in.Masked, in.MaskedContext
	} else {
		f.Claim, f.Context = c.Sentence, c.Context
	}
	return f
}

// usageError wraps model invocation failures.
func usageError(m Method, err error) error {
	return fmt.Errorf("verify: method %s: %w", m.Name(), err)
}

// singleTurn invokes the model once with a user prompt.
func singleTurn(client llm.Client, model, prompt string, inv Invocation) (llm.Response, error) {
	return client.Complete(llm.Request{
		Model:       model,
		Messages:    []llm.Message{{Role: llm.RoleUser, Content: prompt}},
		Temperature: inv.Temperature,
		Seed:        inv.Seed,
		Attempt:     inv.Attempt,
	})
}
