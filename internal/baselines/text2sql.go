package baselines

import (
	"hash/fnv"
	"math/rand"

	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/sqldb"
	"repro/internal/textutil"
	"repro/internal/verify"
)

// roundMatches re-exports the rounding comparison for baseline verdicts.
func roundMatches(claimValue string, result float64) bool {
	return textutil.RoundMatches(claimValue, result)
}

// Text2SQL implements the P1 and P2 baselines: translate the claim into a
// question and the question into SQL with a GPT-3.5-class model, then
// compare the query result to the claimed value. Unlike CEDAR these
// baselines have no plausibility gate exploiting the claimed value, no
// multi-stage escalation, and no few-shot sample harvesting — so any
// executable mistranslation directly becomes a (usually wrong) verdict,
// which is why their Table 2 precision is so low.
type Text2SQL struct {
	// Client is the translation model (GPT-3.5 in the paper).
	Client llm.Client
	// Model is the model name.
	Model string
	// Label is "P1" or "P2".
	Label string
	// IncludeSampleRows switches between the P1 template ("Create Table +
	// Select 3", which inlines example rows) and the plain P2 template.
	IncludeSampleRows bool
	// QuestionLoss is the probability that the claim-to-question
	// intermediate step loses the claim's exact semantics, yielding an
	// executable but wrong query. The two-step translation of P1/P2 is
	// far lossier than direct claim translation — the reason their
	// Table 2 precision sits near 15%.
	QuestionLoss float64
	// Seed drives the loss simulation.
	Seed int64
}

// NewP1 builds the "Create Table + Select 3" baseline.
func NewP1(client llm.Client, model string) *Text2SQL {
	return &Text2SQL{Client: client, Model: model, Label: "P1", IncludeSampleRows: true, QuestionLoss: 0.75, Seed: 1}
}

// NewP2 builds the OpenAI text-to-SQL template baseline.
func NewP2(client llm.Client, model string) *Text2SQL {
	return &Text2SQL{Client: client, Model: model, Label: "P2", QuestionLoss: 0.75, Seed: 2}
}

// Name implements Baseline.
func (b *Text2SQL) Name() string { return b.Label }

// VerifyDocument implements Baseline.
func (b *Text2SQL) VerifyDocument(d *claim.Document) {
	for _, c := range d.Claims {
		b.verifyClaim(c, d.Data)
	}
}

func (b *Text2SQL) verifyClaim(c *claim.Claim, db *sqldb.Database) {
	c.Result.Attempts++
	c.Result.Method = b.Label
	masked, ctx := c.Masked()
	schemaText := db.Schema()
	if b.IncludeSampleRows {
		schemaText += db.SampleRows(3)
	}
	fill := prompts.Fill{Claim: masked, ValueType: c.ValueType(), Schema: schemaText, Context: ctx}
	prompt := fill.OneShot()
	resp, err := b.Client.Complete(llm.Request{
		Model:    b.Model,
		Messages: []llm.Message{{Role: llm.RoleUser, Content: prompt}},
	})
	if err != nil {
		b.giveUp(c)
		return
	}
	query, ok := prompts.ExtractSQL(resp.Content)
	if !ok {
		b.giveUp(c)
		return
	}
	if rng := b.claimRNG(c); rng.Float64() < b.QuestionLoss {
		if mutated, ok := mutateQuery(query, db, rng); ok {
			query = mutated
		}
	}
	c.Result.Query = query
	// No plausibility gate: whatever the query returns decides the
	// verdict directly.
	correct, err := verify.CorrectClaim(query, c.Value, db)
	if err != nil {
		b.giveUp(c)
		return
	}
	c.Result.Verified = true
	c.Result.Correct = correct
}

func (b *Text2SQL) giveUp(c *claim.Claim) {
	c.Result.Verified = false
	c.Result.Correct = true
}

func (b *Text2SQL) claimRNG(c *claim.Claim) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(b.Label))
	_, _ = h.Write([]byte(c.ID))
	_, _ = h.Write([]byte(c.Sentence))
	return llm.NewRand(b.Seed ^ int64(h.Sum64()))
}

// mutateQuery perturbs a SQL query into a semantically different but
// usually still executable one, modelling the semantic drift of the
// claim-to-question-to-SQL pipeline: a different column, a different
// aggregate, or a dropped predicate.
func mutateQuery(query string, db *sqldb.Database, rng *rand.Rand) (string, bool) {
	order := rng.Perm(3)
	for _, strategy := range order {
		if out, ok := applyMutation(query, db, rng, strategy); ok {
			return out, true
		}
	}
	return "", false
}

func applyMutation(query string, db *sqldb.Database, rng *rand.Rand, strategy int) (string, bool) {
	stmt, err := sqldb.Parse(query)
	if err != nil {
		return "", false
	}
	var table *sqldb.Table
	if stmt.From != nil {
		table = db.Table(stmt.From.Name)
	}
	switch strategy {
	case 0: // drop the WHERE predicate
		if stmt.Where == nil {
			return "", false
		}
		stmt.Where = nil
	case 1: // swap the aggregate function
		if len(stmt.Items) != 1 {
			return "", false
		}
		fe, ok := stmt.Items[0].Expr.(*sqldb.FuncExpr)
		if !ok || !fe.IsAggregate() {
			return "", false
		}
		swaps := map[string]string{"SUM": "AVG", "AVG": "MAX", "MAX": "MIN", "MIN": "SUM", "COUNT": "SUM"}
		if next, ok := swaps[fe.Name]; ok {
			if next == "SUM" && fe.Star {
				return "", false
			}
			fe.Name = next
		}
	default: // retarget the projection at another numeric column
		if table == nil || len(stmt.Items) != 1 {
			return "", false
		}
		var numeric []string
		for _, col := range table.Columns {
			if col.Type == sqldb.KindInt || col.Type == sqldb.KindFloat {
				numeric = append(numeric, col.Name)
			}
		}
		if len(numeric) < 2 {
			return "", false
		}
		replace := numeric[rng.Intn(len(numeric))]
		switch e := stmt.Items[0].Expr.(type) {
		case *sqldb.ColumnExpr:
			e.Name = replace
		case *sqldb.FuncExpr:
			if len(e.Args) == 1 {
				if ce, ok := e.Args[0].(*sqldb.ColumnExpr); ok {
					ce.Name = replace
				}
			}
		default:
			return "", false
		}
	}
	return stmt.SQL(), true
}
