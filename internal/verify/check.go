// Package verify implements CEDAR's claim verification approaches: claim
// pre-processing (Algorithm 4, via claim.Masked), the one-shot LLM
// translation method (Algorithm 5, Figure 3), the agent-based method
// (Algorithms 6–8), query plausibility checking (CorrectQuery), claim
// validation (Algorithm 3), and query reconstruction (Algorithm 9).
package verify

import (
	"errors"
	"fmt"

	"repro/internal/embed"
	"repro/internal/sqldb"
	"repro/internal/textutil"
)

// Similarity thresholds of the paper: 0.7 for query plausibility
// (moderate-to-strong alignment tolerant of abbreviations and typos), 0.8
// for claim correctness.
const (
	PlausibleSimilarity = 0.7
	CorrectSimilarity   = 0.8
)

// ErrNoQuery indicates a verification method produced no usable SQL query.
var ErrNoQuery = errors.New("verify: no SQL query produced")

// cell is one translated query's result, executed once, beside the claim
// value it is held against. Executable, the plausibility gate and the claim
// validation are all pure functions of it, so an attempt pays for one
// execution however many gates read the result.
type cell struct {
	res sqldb.Value
	err error

	value   string          // the claim value as written
	numeric bool            // whether it parsed as a number
	number  textutil.Number // its parsed form when numeric

	// sim caches embed.Similarity(value, res.Text()): both gates of a
	// textual claim compare the same similarity, against 0.7 and 0.8.
	sim    float64
	simSet bool
}

// cellFor holds an executed result against a claim value still in text form.
func cellFor(res sqldb.Value, err error, claimValue string) cell {
	number, numeric := textutil.ParseNumeric(claimValue)
	return cell{res: res, err: err, value: claimValue, numeric: numeric, number: number}
}

// executable reports whether the query parsed and ran: an empty or
// multi-cell result still counts (it ran, it just cannot match the claimed
// value), feeding Section 4's marked-incorrect fallback.
func (c *cell) executable() bool {
	return c.err == nil || errors.Is(c.err, sqldb.ErrNotScalar)
}

func (c *cell) similarity() float64 {
	if !c.simSet {
		c.sim, c.simSet = embed.Similarity(c.value, c.res.Text()), true
	}
	return c.sim
}

// plausible is the gate of Algorithm 2: the query executed to a single
// non-NULL cell whose value is in the same order of magnitude as a numeric
// claim value, or embedding-similar (>= 0.7) to a textual one.
func (c *cell) plausible() bool {
	if c.err != nil || c.res.IsNull() {
		return false
	}
	if c.numeric {
		rv, ok := c.res.AsFloat()
		return ok && textutil.SameOrderOfMagnitude(c.number.Value, rv)
	}
	return c.similarity() >= PlausibleSimilarity
}

// correct is Algorithm 3: numeric claims compare the result rounded to the
// claim's stated precision; textual claims compare embeddings against the
// 0.8 threshold.
func (c *cell) correct() (bool, error) {
	if c.err != nil {
		return false, c.err
	}
	if c.numeric {
		rv, ok := c.res.AsFloat()
		if !ok {
			return false, fmt.Errorf("%w: numeric claim vs non-numeric result %q", ErrNoQuery, c.res.String())
		}
		return c.number.RoundMatches(rv), nil
	}
	return c.similarity() >= CorrectSimilarity, nil
}

// CorrectQuery executes the query and applies the plausibility gate of
// Algorithm 2 to its result (see cell.plausible).
func CorrectQuery(query, claimValue string, db *sqldb.Database) bool {
	res, err := sqldb.QueryScalar(db, query)
	c := cellFor(res, err, claimValue)
	return c.plausible()
}

// CorrectClaim executes the query and validates the claim value against its
// result as Algorithm 3 does (see cell.correct).
func CorrectClaim(query, claimValue string, db *sqldb.Database) (bool, error) {
	res, err := sqldb.QueryScalar(db, query)
	c := cellFor(res, err, claimValue)
	return c.correct()
}

// Feedback produces the comparative tool feedback of Algorithm 8: precise
// enough to guide the agent, imprecise enough that the agent cannot echo
// the claim value as a constant. Numeric feedback distinguishes correct /
// close / greater / smaller; textual feedback matched / mismatched.
func Feedback(result sqldb.Value, claimValue string) string {
	if cv, ok := textutil.ParseNumeric(claimValue); ok {
		rv, ok := result.AsFloat()
		if !ok {
			return "The query returned a non-numeric value but the claim is numeric."
		}
		switch {
		case cv.RoundMatches(rv):
			return "Value is correct"
		case textutil.SameOrderOfMagnitude(cv.Value, rv):
			return "The query result is close to the claimed value"
		case rv > cv.Value:
			return "The query result is greater than the claimed value"
		default:
			return "The query result is smaller than the claimed value"
		}
	}
	if embed.Similarity(claimValue, result.Text()) >= PlausibleSimilarity {
		return "Value matched"
	}
	return "Value mismatched"
}
