package verify

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/agent"
	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/sqldb"
)

// Agent is the iterative verification method of Algorithm 6: a ReAct agent
// with two tools — unique_column_values and database_querying — whose
// logged queries are recomposed into one SQL query by the reconstruction
// post-processing of Algorithm 9. An Agent holds no mutable state (retry
// nonces are derived from the invocation seed, not a shared stream), so one
// instance serves concurrent claims without any ordering effects.
type Agent struct {
	Client llm.Client
	Model  string
	Label  string
	Mask   bool
	// Seed distinguishes agent instances: two agents with different seeds
	// sample different retry trajectories for the same claim.
	Seed int64
	// MaxIters caps agent iterations per claim.
	MaxIters int
}

// NewAgent constructs the method with masking enabled.
func NewAgent(client llm.Client, model, label string, seed int64) *Agent {
	return &Agent{
		Client:   client,
		Model:    model,
		Label:    label,
		Mask:     true,
		MaxIters: 8,
		Seed:     seed,
	}
}

// Name implements Method.
func (a *Agent) Name() string { return a.Label }

// ModelName implements Method.
func (a *Agent) ModelName() string { return a.Model }

// Translate implements Method.
func (a *Agent) Translate(c *claim.Claim, db *sqldb.Database, inv Invocation) (string, error) {
	// A per-run nonce makes retries at temperature > 0 sample different
	// agent trajectories while temperature 0 stays deterministic.
	fill := promptFill(c, db, inv, a.Mask)
	base := fill.Agent(a.nonce(inv))

	runner := &agent.Runner{
		Client:        a.Client,
		Model:         a.Model,
		Temperature:   inv.Temperature,
		Seed:          llm.SplitSeed(a.Seed, "conversation", strconv.FormatInt(inv.Seed, 16)),
		MaxIters:      a.MaxIters,
		QueryToolName: prompts.ToolQuery,
		Attempt:       inv.Attempt,
	}
	trace, err := runner.Run(base, a.tools(db, c.Value))
	if trace != nil {
		c.Result.Trace = trace.String()
	}
	if err != nil {
		return "", usageError(a, err)
	}
	if len(trace.Queries) == 0 {
		return "", ErrNoQuery
	}
	return Reconstruct(trace.Queries, db), nil
}

// nonce derives the per-run prompt marker. Temperature 0 keeps the fixed
// nonce so identical prompts stay identical (and cacheable); seeded retries
// get a nonce split from the agent seed and the invocation seed, so each
// (claim, try) samples its own trajectory no matter how attempts interleave.
func (a *Agent) nonce(inv Invocation) string {
	if inv.Temperature <= 0 {
		return "0"
	}
	return strconv.FormatUint(uint64(llm.SplitSeed(a.Seed, "nonce", strconv.FormatInt(inv.Seed, 16))), 16)
}

// tools builds the two agent tools over the claim's database. The querying
// tool implements Algorithm 8: execute the query and return the result plus
// comparative feedback against the claim value.
func (a *Agent) tools(db *sqldb.Database, claimValue string) []agent.Tool {
	unique := agent.FuncTool{
		ToolName: prompts.ToolUniqueValues,
		Fn: func(input string) string {
			return UniqueValuesObservation(db, input)
		},
	}
	query := agent.FuncTool{
		ToolName: prompts.ToolQuery,
		Fn: func(input string) string {
			return QueryObservation(db, input, claimValue)
		},
	}
	return []agent.Tool{unique, query}
}

// UniqueValuesObservation renders the unique-values tool output for a
// column name, searching all tables (the first tool of Section 5.3).
func UniqueValuesObservation(db *sqldb.Database, column string) string {
	column = strings.Trim(strings.TrimSpace(column), `"'`)
	for _, t := range db.Tables() {
		vals, err := t.UniqueValues(column)
		if err != nil {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Values in column %s:\n", column)
		for i, v := range vals {
			if i >= 50 {
				fmt.Fprintf(&b, "... (%d more)\n", len(vals)-i)
				break
			}
			b.WriteString(v.String())
			b.WriteByte('\n')
		}
		return strings.TrimRight(b.String(), "\n")
	}
	return fmt.Sprintf("Error: column %q not found in any table", column)
}

// QueryObservation implements the database-querying tool of Algorithm 8:
// execute the query on the input data and return the result together with
// feedback comparing it to the claimed value.
func QueryObservation(db *sqldb.Database, query, claimValue string) string {
	res, err := sqldb.QueryScalar(db, query)
	if err != nil {
		return "Error: " + err.Error()
	}
	return fmt.Sprintf("Result: %s\nFeedback: %s", res.String(), Feedback(res, claimValue))
}
