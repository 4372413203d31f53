package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/nl"
	"repro/internal/prompts"
	"repro/internal/sqldb"
)

func simDB(t testing.TB) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase("airlinesafety")
	tab := sqldb.NewTable("airlines", "airline", "incidents_85_99", "fatal_accidents_00_14", "fatalities_00_14")
	tab.MustAppendRow(sqldb.Text("Aer Lingus"), sqldb.Int(320), sqldb.Int(0), sqldb.Int(0))
	tab.MustAppendRow(sqldb.Text("Malaysia Airlines"), sqldb.Int(240), sqldb.Int(2), sqldb.Int(537))
	db.AddTable(tab)
	return db
}

func oneShotPrompt(db *sqldb.Database, masked string) string {
	return prompts.OneShot(masked, "numeric", db.Schema(), "", "Some context. "+masked)
}

// agentPrompt is an agent method's first prompt for a numeric claim at
// temperature 0.
func agentPrompt(db *sqldb.Database, masked, context string) string {
	f := prompts.Fill{Claim: masked, ValueType: "numeric", Schema: db.Schema(), Context: context}
	return f.Agent("0")
}

func complete(t *testing.T, m *Model, prompt string, temp float64) string {
	return completeSeeded(t, m, prompt, temp, 0)
}

// completeSeeded sets the request Seed, which distinguishes repeated
// temperature > 0 samples of the same prompt (the model itself is stateless).
func completeSeeded(t *testing.T, m *Model, prompt string, temp float64, seed int64) string {
	t.Helper()
	resp, err := m.Complete(llm.Request{
		Model:       m.Profile().Name,
		Messages:    []llm.Message{{Role: llm.RoleUser, Content: prompt}},
		Temperature: temp,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Content
}

func TestNewUnknownModel(t *testing.T) {
	if _, err := New("gpt-9000", 1); !errors.Is(err, llm.ErrUnknownModel) {
		t.Errorf("err = %v", err)
	}
}

func TestCompleteWrongModelName(t *testing.T) {
	m, _ := New(llm.ModelGPT35, 1)
	_, err := m.Complete(llm.Request{Model: llm.ModelGPT4o})
	if !errors.Is(err, llm.ErrUnknownModel) {
		t.Errorf("err = %v", err)
	}
}

func TestOneShotTranslatesSimpleClaim(t *testing.T) {
	db := simDB(t)
	m, _ := New(llm.ModelGPT4o, 1)
	content := complete(t, m, oneShotPrompt(db, "Malaysia Airlines recorded x fatal accidents between 2000 and 2014."), 0)
	sql, ok := prompts.ExtractSQL(content)
	if !ok {
		t.Fatalf("no SQL in %q", content)
	}
	v, err := sqldb.QueryScalar(db, sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	if n, _ := v.AsInt(); n != 2 {
		t.Errorf("result = %v from %q", v, sql)
	}
}

func TestOneShotRefusesGibberish(t *testing.T) {
	db := simDB(t)
	m, _ := New(llm.ModelGPT4o, 1)
	content := complete(t, m, oneShotPrompt(db, "Gibberish without any template whatsoever."), 0)
	if _, ok := prompts.ExtractSQL(content); ok {
		t.Errorf("extracted SQL from refusal: %q", content)
	}
}

func TestOneShotDeterministicAtTempZero(t *testing.T) {
	db := simDB(t)
	m, _ := New(llm.ModelGPT35, 7)
	p := oneShotPrompt(db, "A total of x fatalities between 2000 and 2014 were recorded across all airlines.")
	a := complete(t, m, p, 0)
	for i := 0; i < 5; i++ {
		if b := complete(t, m, p, 0); b != a {
			t.Fatal("temperature-0 completions differ")
		}
	}
}

func TestOneShotVariesAtHighTemperature(t *testing.T) {
	db := simDB(t)
	m, _ := New(llm.ModelGPT35, 7)
	p := oneShotPrompt(db, "A total of x fatalities between 2000 and 2014 were recorded across all airlines.")
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		seen[completeSeeded(t, m, p, 0.9, int64(i))] = true
	}
	if len(seen) < 2 {
		t.Error("high-temperature completions never vary")
	}
	// The same seed must reproduce the same sample.
	if completeSeeded(t, m, p, 0.9, 5) != completeSeeded(t, m, p, 0.9, 5) {
		t.Error("equal seeds produced different samples")
	}
}

func TestUnmaskedCheat(t *testing.T) {
	db := simDB(t)
	m, _ := New(llm.ModelGPT35, 3) // CheatProb 0.8
	cheats := 0
	for i := 0; i < 30; i++ {
		p := oneShotPrompt(db, "Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014.")
		content := completeSeeded(t, m, p, 0.9, int64(i))
		sql, ok := prompts.ExtractSQL(content)
		if !ok {
			continue
		}
		if strings.Contains(sql, "= 2") || strings.TrimSpace(sql) == "SELECT 2" {
			cheats++
		}
	}
	if cheats < 10 {
		t.Errorf("unmasked prompts produced only %d/30 constant-echo queries", cheats)
	}
}

func TestTokenAccounting(t *testing.T) {
	db := simDB(t)
	m, _ := New(llm.ModelGPT4o, 1)
	p := oneShotPrompt(db, "Malaysia Airlines recorded x fatal accidents between 2000 and 2014.")
	resp, err := m.Complete(llm.Request{Model: llm.ModelGPT4o, Messages: []llm.Message{{Role: llm.RoleUser, Content: p}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Usage.PromptTokens < 50 || resp.Usage.CompletionTokens < 5 {
		t.Errorf("usage = %+v", resp.Usage)
	}
	if resp.Latency <= 0 {
		t.Error("no simulated latency")
	}
}

func TestVerbosityDrivesCompletionTokens(t *testing.T) {
	db := simDB(t)
	p := oneShotPrompt(db, "Malaysia Airlines recorded x fatal accidents between 2000 and 2014.")
	short, _ := New(llm.ModelGPT35, 1)
	long, _ := New(llm.ModelGPT41, 1)
	rs, _ := short.Complete(llm.Request{Model: llm.ModelGPT35, Messages: []llm.Message{{Role: llm.RoleUser, Content: p}}})
	rl, _ := long.Complete(llm.Request{Model: llm.ModelGPT41, Messages: []llm.Message{{Role: llm.RoleUser, Content: p}}})
	if rl.Usage.CompletionTokens <= rs.Usage.CompletionTokens {
		t.Errorf("verbosity: gpt4.1 %d tokens <= gpt3.5 %d", rl.Usage.CompletionTokens, rs.Usage.CompletionTokens)
	}
}

func TestAgentStepProtocol(t *testing.T) {
	db := simDB(t)
	m, _ := New(llm.ModelGPT41, 2)
	base := agentPrompt(db, "Malaysia Airlines recorded x fatal accidents between 2000 and 2014.", "ctx")
	content := complete(t, m, base, 0)
	// First turn: either an action step or a derailment; with seed 2 and
	// this claim we expect an action.
	if !strings.Contains(content, "Action:") && !strings.Contains(content, "Final Answer:") {
		t.Skipf("derailment path taken: %q", content)
	}
	if strings.Contains(content, "Action:") && !strings.Contains(content, "Action Input:") {
		t.Errorf("action without input: %q", content)
	}
}

func TestParseHistory(t *testing.T) {
	tail := `
Thought: first
Action: database_querying
Action Input: SELECT 1
Observation: Result: 537
Feedback: The query result is greater than the claimed value
Thought: hmm
Action: unique_column_values
Action Input: airline
Observation: Values in column airline:
Aer Lingus
Malaysia Airlines
Thought: retry`
	steps := parseHistory(tail)
	if len(steps) != 2 {
		t.Fatalf("steps = %d: %+v", len(steps), steps)
	}
	if steps[0].action != prompts.ToolQuery || steps[0].input != "SELECT 1" {
		t.Errorf("step0 = %+v", steps[0])
	}
	if !strings.Contains(steps[0].observation, "greater") {
		t.Errorf("step0 obs = %q", steps[0].observation)
	}
	if !strings.Contains(steps[1].observation, "Malaysia Airlines") {
		t.Errorf("step1 obs = %q", steps[1].observation)
	}
	if resultOf(steps[0].observation) != "537" {
		t.Errorf("resultOf = %q", resultOf(steps[0].observation))
	}
}

func TestObservationClassifiers(t *testing.T) {
	if !isErrorObs("Error: boom") || isErrorObs("Result: 3") {
		t.Error("error classification")
	}
	if !isSuccessObs("Feedback: Value is correct") {
		t.Error("correct classification")
	}
	if !isSuccessObs("Feedback: The query result is close to the claimed value") {
		t.Error("close classification")
	}
	if !isSuccessObs("Feedback: Value matched") {
		t.Error("matched classification")
	}
	if isSuccessObs("Feedback: Value mismatched") {
		t.Error("mismatched misclassified as success")
	}
	if isSuccessObs("Feedback: The query result is greater than the claimed value") {
		t.Error("greater misclassified")
	}
}

func TestBestMatch(t *testing.T) {
	obs := "Values in column airline:\nAer Lingus\nMalaysia Airlines\nUnited / Continental"
	got, ok := bestMatch(obs, "United Airlines")
	if !ok || got != "United / Continental" {
		t.Errorf("bestMatch = %q %v", got, ok)
	}
	if _, ok := bestMatch(obs, ""); ok {
		t.Error("empty constant matched")
	}
}

func TestSubstituteNumericValue(t *testing.T) {
	out, val, ok := substituteNumericValue("The airline had 42 incidents in total.")
	if !ok || val != "42" || !strings.Contains(out, " x ") {
		t.Errorf("substitute = %q %q %v", out, val, ok)
	}
	if _, _, ok := substituteNumericValue("No numbers at all."); ok {
		t.Error("substituted in number-free sentence")
	}
}

func TestDegradeKindCoversAllKinds(t *testing.T) {
	for k := nl.KindLookup; k <= nl.KindPercent; k++ {
		spec := nl.Spec{Kind: k, Column: "c", EntityCol: "e", FilterCol: "f", FilterVal: "1"}
		degradeKind(&spec)
		// Degradation must change something: kind or predicates.
		if spec.Kind == k && spec.FilterCol == "f" && spec.EntityCol == "e" {
			t.Errorf("kind %v not degraded: %+v", k, spec)
		}
	}
}

func TestProfilesComplete(t *testing.T) {
	profs := Profiles()
	for _, name := range []string{llm.ModelGPT35, llm.ModelGPT4o, llm.ModelGPT41} {
		p, ok := profs[name]
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		for k := nl.KindLookup; k <= nl.KindPercent; k++ {
			if p.KindSkill[k] <= 0 || p.KindSkill[k] > 1 {
				t.Errorf("%s skill for %v = %v", name, k, p.KindSkill[k])
			}
		}
	}
	// Tier ordering: stronger models corrupt less.
	if profs[llm.ModelGPT4o].NoiseZero >= profs[llm.ModelGPT35].NoiseZero+0.05 {
		t.Error("gpt4o should not be noisier than gpt3.5")
	}
	if !profs[llm.ModelGPT4o].ReadsContext || profs[llm.ModelGPT35].ReadsContext {
		t.Error("context-reading tiers wrong")
	}
	if !profs[llm.ModelGPT41].UnitSkill || profs[llm.ModelGPT35].UnitSkill {
		t.Error("unit-skill tiers wrong")
	}
}
