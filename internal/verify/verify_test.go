package verify

import (
	"strings"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/sqldb"
)

func fixtureDB(t testing.TB) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase("airlinesafety")
	tab := sqldb.NewTable("airlines", "airline", "incidents_85_99", "fatal_accidents_00_14", "fatalities_00_14")
	tab.MustAppendRow(sqldb.Text("Aer Lingus"), sqldb.Int(2), sqldb.Int(0), sqldb.Int(0))
	tab.MustAppendRow(sqldb.Text("Malaysia Airlines"), sqldb.Int(3), sqldb.Int(2), sqldb.Int(537))
	tab.MustAppendRow(sqldb.Text("United / Continental"), sqldb.Int(19), sqldb.Int(2), sqldb.Int(109))
	db.AddTable(tab)
	return db
}

func TestCorrectQueryNumeric(t *testing.T) {
	db := fixtureDB(t)
	q := `SELECT "fatal_accidents_00_14" FROM airlines WHERE airline = 'Malaysia Airlines'`
	if !CorrectQuery(q, "2", db) {
		t.Error("exact result should be plausible")
	}
	if !CorrectQuery(q, "3", db) {
		t.Error("same-magnitude result should be plausible")
	}
	if CorrectQuery(q, "900", db) {
		t.Error("magnitude-off result should be implausible")
	}
	if CorrectQuery(`SELECT airline FROM airlines`, "2", db) {
		t.Error("multi-row query should be implausible")
	}
	if CorrectQuery(`SELECT nope FROM airlines`, "2", db) {
		t.Error("failing query should be implausible")
	}
}

func TestCorrectQueryTextual(t *testing.T) {
	db := fixtureDB(t)
	q := `SELECT airline FROM airlines WHERE fatalities_00_14 = (SELECT MAX(fatalities_00_14) FROM airlines)`
	if !CorrectQuery(q, "Malaysia Airlines", db) {
		t.Error("matching textual value should be plausible")
	}
	if !CorrectQuery(q, "malaysia airlines", db) {
		t.Error("case variant should be plausible")
	}
	if CorrectQuery(q, "Aer Lingus", db) {
		t.Error("different entity should be implausible")
	}
}

func TestCorrectClaim(t *testing.T) {
	db := fixtureDB(t)
	q := `SELECT AVG(incidents_85_99) FROM airlines` // = 8
	ok, err := CorrectClaim(q, "8", db)
	if err != nil || !ok {
		t.Errorf("avg claim: %v %v", ok, err)
	}
	ok, err = CorrectClaim(q, "9", db)
	if err != nil || ok {
		t.Errorf("wrong avg claim: %v %v", ok, err)
	}
	// Precision semantics: AVG = 8, claimed 8.0 matches at precision 1.
	ok, _ = CorrectClaim(q, "8.0", db)
	if !ok {
		t.Error("8.0 should match result 8")
	}
}

func TestFeedback(t *testing.T) {
	cases := []struct {
		res   sqldb.Value
		claim string
		want  string
	}{
		{sqldb.Int(2), "2", "correct"},
		{sqldb.Float(2.4), "2", "correct"}, // rounds to 2
		{sqldb.Int(5), "2", "close"},
		{sqldb.Int(900), "2", "greater"},
		{sqldb.Float(0.001), "900", "smaller"},
		{sqldb.Text("Malaysia Airlines"), "Malaysia Airlines", "Value matched"},
		{sqldb.Text("Aer Lingus"), "Lufthansa", "mismatched"},
		{sqldb.Text("abc"), "42", "non-numeric"},
	}
	for _, c := range cases {
		got := Feedback(c.res, c.claim)
		if !strings.Contains(got, c.want) {
			t.Errorf("Feedback(%v, %q) = %q want containing %q", c.res, c.claim, got, c.want)
		}
	}
}

func TestReconstructNumeric(t *testing.T) {
	db := fixtureDB(t)
	queries := []string{
		`SELECT MAX("fatalities_00_14") FROM "airlines"`,
		`SELECT "airline" FROM "airlines" WHERE "fatalities_00_14" = 537`,
	}
	got := Reconstruct(queries, db)
	want := `SELECT "airline" FROM "airlines" WHERE "fatalities_00_14" = (SELECT MAX("fatalities_00_14") FROM "airlines")`
	if got != want {
		t.Errorf("reconstructed:\n%s\nwant:\n%s", got, want)
	}
	// The reconstructed query must execute and produce the right entity.
	v, err := sqldb.QueryScalar(db, got)
	if err != nil || v.Text() != "Malaysia Airlines" {
		t.Errorf("exec reconstructed: %v %v", v, err)
	}
}

func TestReconstructChain(t *testing.T) {
	db := fixtureDB(t)
	queries := []string{
		`SELECT MAX("incidents_85_99") FROM "airlines"`, // 19
		`SELECT MIN("incidents_85_99") FROM "airlines"`, // 2
		`SELECT 19 - 2`,
	}
	got := Reconstruct(queries, db)
	if !strings.Contains(got, "MAX") || !strings.Contains(got, "MIN") {
		t.Errorf("chain reconstruction missing subqueries: %s", got)
	}
	v, err := sqldb.QueryScalar(db, got)
	if err != nil {
		t.Fatalf("exec %q: %v", got, err)
	}
	if n, _ := v.AsInt(); n != 17 {
		t.Errorf("result = %v", v)
	}
}

func TestReconstructSingleQuery(t *testing.T) {
	db := fixtureDB(t)
	q := `SELECT COUNT(*) FROM airlines`
	if got := Reconstruct([]string{q}, db); got != q {
		t.Errorf("single query must pass through, got %q", got)
	}
}

func TestReconstructNoMatchingConstant(t *testing.T) {
	db := fixtureDB(t)
	queries := []string{
		`SELECT MAX("fatalities_00_14") FROM "airlines"`, // 537
		`SELECT COUNT(*) FROM "airlines"`,                // no 537 constant
	}
	got := Reconstruct(queries, db)
	if got != `SELECT COUNT(*) FROM "airlines"` {
		t.Errorf("unexpected substitution: %q", got)
	}
}

func TestReconstructTextual(t *testing.T) {
	db := fixtureDB(t)
	queries := []string{
		`SELECT "airline" FROM "airlines" WHERE "fatalities_00_14" = 537`,
		`SELECT "incidents_85_99" FROM "airlines" WHERE "airline" = 'Malaysia Airlines'`,
	}
	got := Reconstruct(queries, db)
	if !strings.Contains(got, "(SELECT \"airline\"") {
		t.Errorf("textual substitution missing: %s", got)
	}
	v, err := sqldb.QueryScalar(db, got)
	if err != nil {
		t.Fatalf("exec %q: %v", got, err)
	}
	if n, _ := v.AsInt(); n != 3 {
		t.Errorf("result = %v", v)
	}
}

func TestUniqueValuesObservation(t *testing.T) {
	db := fixtureDB(t)
	obs := UniqueValuesObservation(db, "airline")
	if !strings.Contains(obs, "Malaysia Airlines") {
		t.Errorf("obs = %q", obs)
	}
	obs = UniqueValuesObservation(db, `"airline"`)
	if !strings.Contains(obs, "Malaysia Airlines") {
		t.Errorf("quoted column obs = %q", obs)
	}
	if obs := UniqueValuesObservation(db, "nope"); !strings.HasPrefix(obs, "Error:") {
		t.Errorf("missing column obs = %q", obs)
	}
}

func TestQueryObservation(t *testing.T) {
	db := fixtureDB(t)
	obs := QueryObservation(db, `SELECT COUNT(*) FROM airlines`, "3")
	if !strings.Contains(obs, "Result: 3") || !strings.Contains(obs, "correct") {
		t.Errorf("obs = %q", obs)
	}
	if obs := QueryObservation(db, `SELECT * FROM nope`, "3"); !strings.HasPrefix(obs, "Error:") {
		t.Errorf("error obs = %q", obs)
	}
}

// newMethodSet builds the standard verification methods over fresh sim
// models, all metered into one ledger.
func newMethodSet(t testing.TB, seed int64) (oneshot35, oneshot4o, agent4o, agent41 Method, ledger *llm.Ledger) {
	t.Helper()
	ledger = llm.NewLedger()
	client := func(model string) llm.Client {
		m, err := sim.New(model, seed)
		if err != nil {
			t.Fatal(err)
		}
		return &llm.Metered{Client: m, Ledger: ledger}
	}
	oneshot35 = NewOneShot(client(llm.ModelGPT35), llm.ModelGPT35, "oneshot-gpt3.5")
	oneshot4o = NewOneShot(client(llm.ModelGPT4o), llm.ModelGPT4o, "oneshot-gpt4o")
	agent4o = NewAgent(client(llm.ModelGPT4o), llm.ModelGPT4o, "agent-gpt4o", seed)
	agent41 = NewAgent(client(llm.ModelGPT41), llm.ModelGPT41, "agent-gpt4.1", seed)
	return
}

// successRate runs a method over a corpus and returns the fraction of
// claims with a plausible translation and the fraction of translations
// agreeing with the gold label.
func successRate(t *testing.T, m Method, docs []*claim.Document) (verified, labelAgree float64) {
	t.Helper()
	total, ver, agree := 0, 0, 0
	for _, d := range docs {
		for _, c := range d.Claims {
			cc := *c // do not mutate the shared corpus
			total++
			if Attempt(m, &cc, d.Data, nil, 0) {
				ver++
				if cc.Result.Correct == cc.Gold.Correct {
					agree++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("empty corpus")
	}
	return float64(ver) / float64(total), float64(agree) / float64(max(ver, 1))
}

func TestOneShotEndToEnd(t *testing.T) {
	docs, err := data.AggChecker(21)
	if err != nil {
		t.Fatal(err)
	}
	docs = docs[:12]
	oneshot35, oneshot4o, _, _, _ := newMethodSet(t, 21)

	v35, _ := successRate(t, oneshot35, docs)
	v4o, a4o := successRate(t, oneshot4o, docs)
	t.Logf("one-shot verified rates: gpt3.5=%.2f gpt4o=%.2f (gpt4o agree=%.2f)", v35, v4o, a4o)
	if v35 < 0.2 || v35 > 0.95 {
		t.Errorf("gpt3.5 one-shot verified rate %.2f outside plausible band", v35)
	}
	if v4o <= v35 {
		t.Errorf("gpt4o (%.2f) should verify more claims than gpt3.5 (%.2f)", v4o, v35)
	}
	if a4o < 0.8 {
		t.Errorf("gpt4o verified claims should mostly agree with gold labels, got %.2f", a4o)
	}
}

func TestAgentRecoversOneShotFailures(t *testing.T) {
	// The agent's role in CEDAR is to verify the claims one-shot methods
	// could not (Section 5.3): on the one-shot failure set, the agent must
	// recover a substantial fraction, at higher cost per claim.
	docs, err := data.AggChecker(33)
	if err != nil {
		t.Fatal(err)
	}
	docs = docs[:16]
	_, oneshot4o, agent4o, _, ledger := newMethodSet(t, 33)

	type failed struct {
		c  *claim.Claim
		db *sqldb.Database
	}
	var failures []failed
	total := 0
	for _, d := range docs {
		for _, c := range d.Claims {
			cc := *c
			total++
			if !Attempt(oneshot4o, &cc, d.Data, nil, 0) {
				failures = append(failures, failed{c: c, db: d.Data})
			}
		}
	}
	costOneShot := ledger.TotalDollars() / float64(total)
	if len(failures) < 5 {
		t.Fatalf("too few one-shot failures to measure recovery: %d", len(failures))
	}
	ledger.Reset()
	recovered := 0
	for _, f := range failures {
		cc := *f.c
		if Attempt(agent4o, &cc, f.db, nil, 0) {
			recovered++
		}
	}
	costAgent := ledger.TotalDollars() / float64(len(failures))
	t.Logf("agent recovered %d/%d one-shot failures; per-claim cost $%.5f vs one-shot $%.5f",
		recovered, len(failures), costAgent, costOneShot)
	if float64(recovered) < 0.3*float64(len(failures)) {
		t.Errorf("agent recovered only %d/%d one-shot failures", recovered, len(failures))
	}
	if costAgent <= costOneShot {
		t.Errorf("agent per-claim cost ($%.5f) should exceed one-shot ($%.5f)", costAgent, costOneShot)
	}
}

func TestAgentRecoversAliasHazard(t *testing.T) {
	// Force alias hazards on every lookup; the one-shot method cannot
	// recover (the constant does not occur in the data), the agent can via
	// the unique-values tool.
	docs, err := data.Generate(data.GenConfig{
		Seed: 5, Docs: 8, ClaimsPerDoc: 5, IncorrectRate: 0.1,
		AliasRate: 1.0, Domains: []string{data.Domain538},
	})
	if err != nil {
		t.Fatal(err)
	}
	var aliasDocs []*claim.Document
	for _, d := range docs {
		nd := &claim.Document{ID: d.ID, Domain: d.Domain, Data: d.Data}
		for _, c := range d.Claims {
			if strings.Contains(c.Sentence, "United Airlines") ||
				strings.Contains(c.Sentence, "Delta Air Lines") ||
				strings.Contains(c.Sentence, "the United States") ||
				strings.Contains(c.Sentence, "America") ||
				strings.Contains(c.Sentence, "Britain") {
				nd.Claims = append(nd.Claims, c)
			}
		}
		if len(nd.Claims) > 0 {
			aliasDocs = append(aliasDocs, nd)
		}
	}
	if claim.TotalClaims(aliasDocs) < 3 {
		t.Skip("not enough alias claims drawn")
	}
	_, oneshot4o, agent4o, _, _ := newMethodSet(t, 5)
	v1, _ := successRate(t, oneshot4o, aliasDocs)
	v2, _ := successRate(t, agent4o, aliasDocs)
	t.Logf("alias claims: oneshot=%.2f agent=%.2f over %d claims", v1, v2, claim.TotalClaims(aliasDocs))
	if v2 <= v1 {
		t.Errorf("agent (%.2f) must beat one-shot (%.2f) on alias hazards", v2, v1)
	}
	if v2 < 0.5 {
		t.Errorf("agent should recover most alias hazards, got %.2f", v2)
	}
}

func TestTemperatureChangesRetries(t *testing.T) {
	docs, err := data.AggChecker(55)
	if err != nil {
		t.Fatal(err)
	}
	oneshot35, _, _, _, _ := newMethodSet(t, 55)
	// Find a claim that fails at temperature 0; retries at temperature 0
	// must keep failing (deterministic), while retries at 0.25 may differ.
	var target *claim.Claim
	var db *sqldb.Database
	for _, d := range docs {
		for _, c := range d.Claims {
			cc := *c
			if !Attempt(oneshot35, &cc, d.Data, nil, 0) {
				target, db = c, d.Data
				break
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		t.Skip("no failing claim found")
	}
	for i := 0; i < 3; i++ {
		cc := *target
		if Attempt(oneshot35, &cc, db, nil, 0) {
			t.Fatal("temperature-0 retry changed the outcome")
		}
	}
	changed := false
	for i := 0; i < 30 && !changed; i++ {
		cc := *target
		if Attempt(oneshot35, &cc, db, nil, 0.5) {
			changed = true
		}
	}
	t.Logf("temperature-0.5 retries eventually succeeded: %v", changed)
}

func TestMaskingAblation(t *testing.T) {
	// Without masking, the model echoes the claim value as a constant
	// (Figure 2), so incorrect claims get falsely verified as correct.
	docs, err := data.Generate(data.GenConfig{
		Seed: 77, Docs: 10, ClaimsPerDoc: 5, IncorrectRate: 0.5,
		Domains: []string{data.Domain538},
	})
	if err != nil {
		t.Fatal(err)
	}
	modelClient, err := sim.New(llm.ModelGPT4o, 77)
	if err != nil {
		t.Fatal(err)
	}
	masked := NewOneShot(modelClient, llm.ModelGPT4o, "masked")
	unmasked := NewOneShot(modelClient, llm.ModelGPT4o, "unmasked")
	unmasked.Mask = false

	falsePos := func(m Method) int {
		n := 0
		for _, d := range docs {
			for _, c := range d.Claims {
				if c.Gold.Correct {
					continue
				}
				cc := *c
				if Attempt(m, &cc, d.Data, nil, 0) && cc.Result.Correct {
					n++ // incorrect claim verified as correct
				}
			}
		}
		return n
	}
	fpMasked := falsePos(masked)
	fpUnmasked := falsePos(unmasked)
	t.Logf("false positives: masked=%d unmasked=%d", fpMasked, fpUnmasked)
	if fpUnmasked <= fpMasked {
		t.Errorf("unmasked prompts must produce more false positives (masked=%d unmasked=%d)", fpMasked, fpUnmasked)
	}
}

func TestFewShotSampleHelps(t *testing.T) {
	// Harvested samples halve the corruption rate (FewShotBoost), which
	// surfaces as more verdicts agreeing with gold labels at retry
	// temperatures. The raw verified-rate is not the right metric:
	// corrupted translations often still pass the plausibility gate, just
	// with the wrong verdict.
	docs, err := data.AggChecker(88)
	if err != nil {
		t.Fatal(err)
	}
	oneshot35, _, _, _, _ := newMethodSet(t, 88)
	sample := &Sample{
		MaskedClaim: "Aeroflot recorded x incidents between 1985 and 1999.",
		Query:       `SELECT "incidents_85_99" FROM "airlines" WHERE "airline" = 'Aeroflot'`,
	}
	noAgree, withAgree, total := 0, 0, 0
	for _, d := range docs {
		for _, c := range d.Claims {
			total++
			c1, c2 := *c, *c
			if Attempt(oneshot35, &c1, d.Data, nil, 0.6) && c1.Result.Correct == c1.Gold.Correct {
				noAgree++
			}
			if Attempt(oneshot35, &c2, d.Data, sample, 0.6) && c2.Result.Correct == c2.Gold.Correct {
				withAgree++
			}
		}
	}
	t.Logf("gpt3.5 at temp 0.6: gold-agreeing verdicts without sample %d/%d, with sample %d/%d", noAgree, total, withAgree, total)
	if withAgree <= noAgree {
		t.Errorf("few-shot sample should raise verdict agreement: %d vs %d over %d claims", withAgree, noAgree, total)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestMakeSampleAndModelNames(t *testing.T) {
	docs, err := data.AggChecker(70)
	if err != nil {
		t.Fatal(err)
	}
	c := docs[0].Claims[0]
	cc := *c
	cc.Result.Query = "SELECT 1"
	in := cc.Inputs()
	s := MakeSample(&cc, &in)
	if s.Query != "SELECT 1" {
		t.Errorf("sample query = %q", s.Query)
	}
	if strings.Contains(s.MaskedClaim, cc.Value) && len(cc.Value) > 1 {
		t.Errorf("sample leaks claim value: %q", s.MaskedClaim)
	}
	oneshot35, _, agent4o, _, _ := newMethodSet(t, 70)
	if oneshot35.ModelName() != llm.ModelGPT35 {
		t.Errorf("oneshot model = %q", oneshot35.ModelName())
	}
	if agent4o.ModelName() != llm.ModelGPT4o {
		t.Errorf("agent model = %q", agent4o.ModelName())
	}
}

func TestAgentNonceVariesAtTemperature(t *testing.T) {
	_, _, agent4o, _, _ := newMethodSet(t, 71)
	a := agent4o.(*Agent)
	if a.nonce(Invocation{}) != "0" || a.nonce(Invocation{Temperature: 0, Seed: 9}) != "0" {
		t.Error("temperature-0 nonce must be constant")
	}
	hot := func(seed int64) string { return a.nonce(Invocation{Temperature: 0.5, Seed: seed}) }
	if hot(1) == hot(2) {
		t.Error("distinct invocation seeds must yield distinct nonces")
	}
	if hot(1) != hot(1) {
		t.Error("equal invocation seeds must yield equal nonces")
	}
	b := *a
	b.Seed = a.Seed + 1
	if hot(1) == b.nonce(Invocation{Temperature: 0.5, Seed: 1}) {
		t.Error("distinct agent seeds must yield distinct nonces")
	}
}

func TestTraceRecorded(t *testing.T) {
	docs, err := data.AggChecker(72)
	if err != nil {
		t.Fatal(err)
	}
	d := docs[0]
	oneshot35, _, agent4o, _, _ := newMethodSet(t, 72)
	c1 := *d.Claims[0]
	Attempt(oneshot35, &c1, d.Data, nil, 0)
	if c1.Result.Trace == "" || !strings.Contains(c1.Result.Trace, "```sql") && !strings.Contains(c1.Result.Trace, "could not determine") {
		t.Errorf("one-shot trace = %q", c1.Result.Trace)
	}
	c2 := *d.Claims[0]
	c2.Result = claim.Result{}
	Attempt(agent4o, &c2, d.Data, nil, 0)
	if c2.Result.Trace == "" {
		t.Error("agent trace missing")
	}
}
