package verify

import (
	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/sqldb"
)

// OneShot is the single-invocation claim-to-SQL translation method of
// Algorithm 5: build the Figure 3 prompt, invoke the model once, and
// extract the fenced SQL query from the response.
type OneShot struct {
	// Client executes completions (typically an llm.Metered wrapping a
	// simulated model).
	Client llm.Client
	// Model is the model name to invoke.
	Model string
	// Label distinguishes method instances ("oneshot-gpt-3.5").
	Label string
	// Mask controls claim-value obfuscation (Algorithm 4). Production
	// CEDAR always masks; the ablation benchmark turns it off to
	// demonstrate the Figure 2 failure mode.
	Mask bool
}

// NewOneShot constructs the method with masking enabled.
func NewOneShot(client llm.Client, model, label string) *OneShot {
	return &OneShot{Client: client, Model: model, Label: label, Mask: true}
}

// Name implements Method.
func (o *OneShot) Name() string { return o.Label }

// ModelName implements Method.
func (o *OneShot) ModelName() string { return o.Model }

// Translate implements Method.
func (o *OneShot) Translate(c *claim.Claim, db *sqldb.Database, inv Invocation) (string, error) {
	fill := promptFill(c, db, inv, o.Mask)
	resp, err := singleTurn(o.Client, o.Model, fill.OneShot(), inv)
	if err != nil {
		return "", usageError(o, err)
	}
	c.Result.Trace = resp.Content
	query, ok := prompts.ExtractSQL(resp.Content)
	if !ok {
		return "", ErrNoQuery
	}
	return query, nil
}
