package verify

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/llm/resilience"
	"repro/internal/llm/sim"
	"repro/internal/sqldb"
	"repro/internal/textutil"
	"repro/internal/trace"
)

// The attempt as it was before it executed its query once: Executable, the
// plausibility gate and the claim validation each ran the translated SQL
// themselves, and every gate parsed the claim value again. Kept as the oracle
// the one-execution AttemptWith is held to.

func referenceCorrectQuery(query, claimValue string, db *sqldb.Database) bool {
	res, err := sqldb.QueryScalar(db, query)
	if err != nil || res.IsNull() {
		return false
	}
	if cv, ok := textutil.ParseNumber(claimValue); ok {
		rv, ok := res.AsFloat()
		if !ok {
			return false
		}
		return textutil.SameOrderOfMagnitude(cv, rv)
	}
	return embed.Similarity(claimValue, res.Text()) >= PlausibleSimilarity
}

func referenceCorrectClaim(query, claimValue string, db *sqldb.Database) (bool, error) {
	res, err := sqldb.QueryScalar(db, query)
	if err != nil {
		return false, err
	}
	if textutil.IsNumeric(claimValue) {
		rv, ok := res.AsFloat()
		if !ok {
			return false, fmt.Errorf("%w: numeric claim vs non-numeric result %q", ErrNoQuery, res.String())
		}
		return textutil.RoundMatches(claimValue, rv), nil
	}
	return embed.Similarity(claimValue, res.Text()) >= CorrectSimilarity, nil
}

func referenceAttemptWith(m Method, c *claim.Claim, db *sqldb.Database, inv Invocation) bool {
	c.Result.Attempts++
	c.Result.Failure = ""
	query, err := m.Translate(c, db, inv)
	if err != nil {
		if class, ok := resilience.Classify(err); ok {
			c.Result.Failure = class
			inv.outcome(class)
		} else {
			inv.outcome(trace.OutcomeImplausible)
		}
		return false
	}
	c.Result.Query = query
	if _, err := sqldb.QueryScalar(db, query); err == nil || errors.Is(err, sqldb.ErrNotScalar) {
		c.Result.Executable = true
	}
	if !referenceCorrectQuery(query, c.Value, db) {
		inv.outcome(trace.OutcomeImplausible)
		return false
	}
	correct, err := referenceCorrectClaim(query, c.Value, db)
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

// faultyMethods builds the four standard methods over fresh simulated models
// behind a fault injector. The injector counts calls per request identity,
// so each side of a differential needs a set of its own.
func faultyMethods(t testing.TB, seed int64, faultRate float64) []Method {
	t.Helper()
	client := func(model string) llm.Client {
		m, err := sim.New(model, seed)
		if err != nil {
			t.Fatal(err)
		}
		return &resilience.Faulty{Client: m, Plan: resilience.Plan{Seed: seed, Rate: faultRate, Permanent: 1, Transient: 2, Timeout: 1, RateLimited: 1}}
	}
	return []Method{
		NewOneShot(client(llm.ModelGPT35), llm.ModelGPT35, "oneshot-gpt3.5"),
		NewOneShot(client(llm.ModelGPT4o), llm.ModelGPT4o, "oneshot-gpt4o"),
		NewAgent(client(llm.ModelGPT4o), llm.ModelGPT4o, "agent-gpt4o", seed),
		NewAgent(client(llm.ModelGPT41), llm.ModelGPT41, "agent-gpt4.1", seed),
	}
}

// TestDifferentialAttemptWith holds the one-execution attempt to the
// three-execution one over every claim of every generator corpus, for every
// method, with and without injected transport faults: the whole claim.Result
// and the outcome span must be equal after a temperature-0 try and after a
// seeded retry, with the few-shot sample harvested as the pipeline does.
func TestDifferentialAttemptWith(t *testing.T) {
	const seed = 53
	attempts, verified, failed := 0, 0, 0
	for name, docs := range generatorCorpora(t, seed) {
		for _, faultRate := range []float64{0, 0.2} {
			want, got := faultyMethods(t, seed, faultRate), faultyMethods(t, seed, faultRate)
			for mi := range want {
				wantTr, gotTr := trace.New(), trace.New()
				for _, d := range docs {
					var sample *Sample
					for ci, c := range d.Claims {
						wc, gc := *c, *c
						for try, temp := range []float64{0, 0.5} {
							inv := Invocation{
								Sample:      sample,
								Temperature: temp,
								Seed:        llm.SplitSeed(seed, d.ID, strconv.Itoa(ci), want[mi].Name(), strconv.Itoa(try)),
								Attempt:     trace.Key{Doc: d.ID, Claim: ci, Method: want[mi].Name(), Try: try},
							}
							inv.Tracer = wantTr
							wantOK := referenceAttemptWith(want[mi], &wc, d.Data, inv)
							inv.Tracer = gotTr
							gotOK := AttemptWith(got[mi], &gc, d.Data, inv)
							attempts++
							if gotOK != wantOK || gc.Result != wc.Result {
								t.Fatalf("%s fault %.1f %s %s try %d:\n got %v %+v\nwant %v %+v",
									name, faultRate, want[mi].Name(), c.ID, try, gotOK, gc.Result, wantOK, wc.Result)
							}
							if wc.Result.Failure != "" {
								failed++
							}
							if wantOK {
								verified++
								if sample == nil {
									in := wc.Inputs()
									sample = MakeSample(&wc, &in)
								}
								break
							}
						}
					}
				}
				if !reflect.DeepEqual(gotTr.Spans(), wantTr.Spans()) {
					t.Fatalf("%s fault %.1f %s: outcome spans differ", name, faultRate, want[mi].Name())
				}
			}
		}
	}
	if attempts < 5000 || verified < attempts/4 || failed == 0 {
		t.Fatalf("differential covered %d attempts, %d verified, %d transport failures; the corpora should give more", attempts, verified, failed)
	}
	t.Logf("%d attempts compared, %d verified, %d transport failures", attempts, verified, failed)
}

// lookupsAfterTranslate wraps a method and notes the plan cache's lookup
// count when Translate returns, so a test can count what the rest of the
// attempt executes (an agent's own tool queries happen inside Translate).
type lookupsAfterTranslate struct {
	Method
	db     *sqldb.Database
	before uint64
}

func planLookups(db *sqldb.Database) uint64 {
	st := db.PlanCacheStats()
	return st.Hits + st.Misses
}

func (m *lookupsAfterTranslate) Translate(c *claim.Claim, db *sqldb.Database, inv Invocation) (string, error) {
	query, err := m.Method.Translate(c, db, inv)
	m.before = planLookups(m.db)
	return query, err
}

// TestAttemptExecutesOnce counts executions at the plan cache: an attempt
// whose method returned a query looks one plan up, whatever the gates decide,
// and an attempt whose method returned none looks nothing up.
func TestAttemptExecutesOnce(t *testing.T) {
	docs, err := data.AggChecker(70)
	if err != nil {
		t.Fatal(err)
	}
	withQuery, without := 0, 0
	for _, faultRate := range []float64{0, 0.5} {
		for _, inner := range faultyMethods(t, 70, faultRate) {
			for _, d := range docs {
				m := &lookupsAfterTranslate{Method: inner, db: d.Data}
				for _, c := range d.Claims {
					cc := *c
					AttemptWith(m, &cc, d.Data, Invocation{})
					after := planLookups(d.Data)
					want := uint64(1)
					if cc.Result.Query == "" {
						want = 0
						without++
					} else {
						withQuery++
					}
					if after-m.before != want {
						t.Fatalf("%s %s (query %q): %d plan lookups after Translate, want %d",
							inner.Name(), c.ID, cc.Result.Query, after-m.before, want)
					}
				}
			}
		}
	}
	if withQuery == 0 || without == 0 {
		t.Fatalf("covered %d attempts with a query and %d without; need both", withQuery, without)
	}
}

// fixedQuery is a method whose translation is a constant.
type fixedQuery struct {
	query string
	err   error
}

func (f fixedQuery) Name() string      { return "fixed" }
func (f fixedQuery) ModelName() string { return "none" }
func (f fixedQuery) Translate(*claim.Claim, *sqldb.Database, Invocation) (string, error) {
	return f.query, f.err
}

// TestAttemptResultShapes pins what each shape of execution result does to
// Executable, the verdict and the outcome span — and that it agrees with the
// three-execution attempt, which read the shapes through separate gates.
func TestAttemptResultShapes(t *testing.T) {
	db := fixtureDB(t)
	nulls := sqldb.NewTable("gaps", "k", "v")
	nulls.MustAppendRow(sqldb.Int(1), sqldb.Null())
	db.AddTable(nulls)
	cases := []struct {
		name, query, value   string
		translateErr         error
		executable, verified bool
		correct              bool
		outcome, failure     string
	}{
		{name: "matching cell", query: `SELECT COUNT(*) FROM airlines`, value: "3", executable: true, verified: true, correct: true, outcome: trace.OutcomeVerified},
		{name: "plausible but wrong", query: `SELECT COUNT(*) FROM airlines`, value: "4", executable: true, verified: true, outcome: trace.OutcomeVerified},
		{name: "implausible magnitude", query: `SELECT COUNT(*) FROM airlines`, value: "4000", executable: true, outcome: trace.OutcomeImplausible},
		{name: "multi-row", query: `SELECT airline FROM airlines`, value: "3", executable: true, outcome: trace.OutcomeImplausible},
		{name: "multi-column", query: `SELECT airline, incidents_85_99 FROM airlines WHERE airline = 'Aer Lingus'`, value: "2", executable: true, outcome: trace.OutcomeImplausible},
		{name: "no rows", query: `SELECT incidents_85_99 FROM airlines WHERE airline = 'nobody'`, value: "2", executable: true, outcome: trace.OutcomeImplausible},
		{name: "NULL cell", query: `SELECT v FROM gaps`, value: "2", executable: true, outcome: trace.OutcomeImplausible},
		{name: "NULL cell, textual claim", query: `SELECT v FROM gaps`, value: "Aer Lingus", executable: true, outcome: trace.OutcomeImplausible},
		{name: "unknown column", query: `SELECT nope FROM airlines`, value: "2", outcome: trace.OutcomeImplausible},
		{name: "parse error", query: `SELEC 1`, value: "2", outcome: trace.OutcomeImplausible},
		{name: "text cell, numeric claim", query: `SELECT airline FROM airlines WHERE incidents_85_99 = 2`, value: "2", executable: true, outcome: trace.OutcomeImplausible},
		{name: "textual match", query: `SELECT airline FROM airlines WHERE incidents_85_99 = 2`, value: "Aer Lingus", executable: true, verified: true, correct: true, outcome: trace.OutcomeVerified},
		{name: "textual mismatch", query: `SELECT airline FROM airlines WHERE incidents_85_99 = 2`, value: "Lufthansa", executable: true, outcome: trace.OutcomeImplausible},
		{name: "no query", translateErr: ErrNoQuery, value: "2", outcome: trace.OutcomeImplausible},
		{name: "transport failure", translateErr: fmt.Errorf("wrapped: %w", resilience.ErrTimeout), value: "2", outcome: "timeout", failure: "timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := fixedQuery{query: tc.query, err: tc.translateErr}
			run := func(attempt func(Method, *claim.Claim, *sqldb.Database, Invocation) bool) (claim.Result, []trace.Span) {
				c := &claim.Claim{ID: "c", Sentence: "The figure is " + tc.value + ".", Value: tc.value}
				tr := trace.New()
				attempt(m, c, db, Invocation{Tracer: tr})
				return c.Result, tr.Spans()
			}
			got, gotSpans := run(AttemptWith)
			want, wantSpans := run(referenceAttemptWith)
			if got != want || !reflect.DeepEqual(gotSpans, wantSpans) {
				t.Fatalf("got %+v %+v\nthree-execution attempt gives %+v %+v", got, gotSpans, want, wantSpans)
			}
			if got.Executable != tc.executable || got.Verified != tc.verified || got.Correct != tc.correct || got.Failure != tc.failure {
				t.Errorf("result %+v, want executable=%v verified=%v correct=%v failure=%q", got, tc.executable, tc.verified, tc.correct, tc.failure)
			}
			if len(gotSpans) != 1 || gotSpans[0].Kind != trace.KindOutcome || gotSpans[0].Outcome != tc.outcome {
				t.Errorf("spans %+v, want one outcome span %q", gotSpans, tc.outcome)
			}
		})
	}
}

// TestDifferentialGates holds the exported gates — now "execute, then apply
// the attempt's gate" — to the ones they replace, over the fixture's result
// shapes and a spread of claim values.
func TestDifferentialGates(t *testing.T) {
	db := fixtureDB(t)
	queries := []string{
		`SELECT COUNT(*) FROM airlines`,
		`SELECT AVG(incidents_85_99) FROM airlines`,
		`SELECT airline FROM airlines`,
		`SELECT airline FROM airlines WHERE incidents_85_99 = 2`,
		`SELECT incidents_85_99 FROM airlines WHERE airline = 'nobody'`,
		`SELECT nope FROM airlines`,
		`SELECT -537`,
		`SELECT 0`,
		`SELECT NULL`,
	}
	values := []string{"3", "8", "8.0", "0", "-537", "500", "$8", "8%", "eight", "3 thousand", "Aer Lingus", "aer lingus", "Lufthansa", "Infinity", "nan", ""}
	for _, q := range queries {
		for _, v := range values {
			if got, want := CorrectQuery(q, v, db), referenceCorrectQuery(q, v, db); got != want {
				t.Errorf("CorrectQuery(%q, %q) = %v, reference %v", q, v, got, want)
			}
			got, gotErr := CorrectClaim(q, v, db)
			want, wantErr := referenceCorrectClaim(q, v, db)
			if got != want || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Errorf("CorrectClaim(%q, %q) = %v, %v; reference %v, %v", q, v, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestClaimInputsMatchAccessors holds what a run prepares for a claim to the
// accessors every attempt used to call: for every claim of every generator
// corpus the prepared masking, value type and parsed value are exactly what
// Masked, ValueType and ParseNumber give, and a prompt built from prepared
// inputs is the prompt built without them, byte for byte.
func TestClaimInputsMatchAccessors(t *testing.T) {
	claims := 0
	for name, docs := range generatorCorpora(t, 53) {
		for _, d := range docs {
			for _, c := range d.Claims {
				claims++
				in := c.Inputs()
				masked, ctx := c.Masked()
				if in.Masked != masked || in.MaskedContext != ctx || in.ValueType() != c.ValueType() || in.Numeric != c.IsNumeric() {
					t.Fatalf("%s %s: prepared %+v; accessors give %q, %q, %q, %v", name, c.ID, in, masked, ctx, c.ValueType(), c.IsNumeric())
				}
				if v, ok := textutil.ParseNumber(c.Value); ok != in.Numeric || v != in.Number.Value ||
					(ok && in.Number.Precision != textutil.Precision(c.Value)) {
					t.Fatalf("%s %s: prepared number %+v for value %q", name, c.ID, in.Number, c.Value)
				}
				for _, mask := range []bool{true, false} {
					fill := promptFill(c, d.Data, Invocation{}, mask)
					if got := promptFill(c, d.Data, Invocation{Inputs: &in}, mask); got != fill {
						t.Fatalf("%s %s mask=%v: prompt fill differs with prepared inputs:\n%+v\n%+v", name, c.ID, mask, got, fill)
					}
					if mask && (fill.Claim != masked || fill.Context != ctx) || !mask && (fill.Claim != c.Sentence || fill.Context != c.Context) ||
						fill.ValueType != c.ValueType() || fill.Schema != d.Data.Schema() || fill.Sample != nil {
						t.Fatalf("%s %s mask=%v: prompt reads %+v", name, c.ID, mask, fill)
					}
				}
			}
		}
	}
	if claims < 500 {
		t.Fatalf("only %d corpus claims covered", claims)
	}
}

// TestAttemptAllocCeiling pins one warm one-shot attempt, inputs prepared as
// the pipeline prepares them. The attempt that executed its query three
// times, rendered the schema and masked the claim itself spent 141 (key
// lookup) and 102 (aggregate) allocations on these two claims; executing
// once, 67 and 52; with the prompt rendered once at its exact size and read
// in one pass, 38 and 26. With the query's one cell read straight from its
// plan, no Result built and the execution's scratch space reused, they are
// the ceilings below.
func TestAttemptAllocCeiling(t *testing.T) {
	docs, err := data.AggChecker(70)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sim.New(llm.ModelGPT35, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewOneShot(model, llm.ModelGPT35, "oneshot-gpt3.5")
	d := docs[0]
	for _, tc := range []struct {
		claim   int
		query   string
		ceiling float64
	}{
		{0, `SELECT "spirit_servings" FROM "drinks" WHERE "country" = 'India'`, 12},
		{2, `SELECT AVG("total_litres_of_pure_alcohol") FROM "drinks"`, 12},
	} {
		c := d.Claims[tc.claim]
		in := c.Inputs()
		attempt := func() claim.Result {
			cc := *c
			AttemptWith(m, &cc, d.Data, Invocation{Inputs: &in})
			return cc.Result
		}
		if res := attempt(); !res.Verified || res.Query != tc.query {
			t.Fatalf("%s: the fixture moved: %+v", c.ID, res)
		}
		if got := testing.AllocsPerRun(200, func() { attempt() }); got > tc.ceiling {
			t.Errorf("%s: %.0f allocations per attempt, ceiling %.0f", c.ID, got, tc.ceiling)
		}
	}
}
