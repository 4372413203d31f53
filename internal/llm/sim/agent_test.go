package sim

import (
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/sqldb"
	"repro/internal/verify"
)

// driveAgent plays a full conversation between a sim model and real tools,
// returning every issued query and the final answer. It mirrors what
// internal/agent does, with explicit visibility into each turn.
func driveAgent(t *testing.T, m *Model, db *sqldb.Database, maskedClaim, claimValue string) (queries []string, final string) {
	t.Helper()
	base := agentPrompt(db, maskedClaim, "ctx "+maskedClaim)
	messages := []llm.Message{{Role: llm.RoleUser, Content: base}}
	for iter := 0; iter < 10; iter++ {
		resp, err := m.Complete(llm.Request{Model: m.Profile().Name, Messages: messages})
		if err != nil {
			t.Fatal(err)
		}
		content := resp.Content
		if idx := strings.Index(content, "Final Answer:"); idx >= 0 {
			return queries, strings.TrimSpace(content[idx+len("Final Answer:"):])
		}
		action, input := "", ""
		for _, line := range strings.Split(content, "\n") {
			if after, ok := strings.CutPrefix(line, "Action:"); ok {
				action = strings.TrimSpace(after)
			}
			if after, ok := strings.CutPrefix(line, "Action Input:"); ok {
				input = strings.TrimSpace(after)
			}
		}
		if action == "" {
			return queries, "" // derailed
		}
		var obs string
		switch action {
		case prompts.ToolQuery:
			queries = append(queries, input)
			obs = verify.QueryObservation(db, input, claimValue)
		case prompts.ToolUniqueValues:
			obs = verify.UniqueValuesObservation(db, input)
		default:
			obs = "Error: unknown tool"
		}
		messages = append(messages,
			llm.Message{Role: llm.RoleAssistant, Content: content},
			llm.Message{Role: llm.RoleUser, Content: "Observation: " + obs})
	}
	t.Fatal("conversation did not terminate")
	return nil, ""
}

func agentDB(t testing.TB) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase("airlinesafety")
	tab := sqldb.NewTable("airlines", "airline", "fatal_accidents_00_14", "fatalities_00_14")
	tab.MustAppendRow(sqldb.Text("Aer Lingus"), sqldb.Int(0), sqldb.Int(0))
	tab.MustAppendRow(sqldb.Text("Malaysia Airlines"), sqldb.Int(2), sqldb.Int(537))
	tab.MustAppendRow(sqldb.Text("United / Continental"), sqldb.Int(2), sqldb.Int(109))
	db.AddTable(tab)
	return db
}

// newCleanModel returns a GPT-4.1 model whose conversation for the given
// base does not derail (scanning seeds). Tests of specific recovery flows
// need a non-derailed trajectory.
func newCleanModel(t *testing.T, db *sqldb.Database, masked string) *Model {
	t.Helper()
	for seed := int64(1); seed < 60; seed++ {
		m, err := New(llm.ModelGPT41, seed)
		if err != nil {
			t.Fatal(err)
		}
		base := agentPrompt(db, masked, "ctx "+masked)
		resp, err := m.Complete(llm.Request{Model: llm.ModelGPT41, Messages: []llm.Message{{Role: llm.RoleUser, Content: base}}})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(resp.Content, "Action:") {
			return m
		}
	}
	t.Fatal("no seed yields a non-derailed first turn")
	return nil
}

// TestAgentAliasRecoveryFlow replays the Example 5.3 dynamic: the first
// query uses a constant absent from the data, the error triggers the
// unique-values tool, and the corrected constant succeeds.
func TestAgentAliasRecoveryFlow(t *testing.T) {
	db := agentDB(t)
	masked := "United Airlines recorded x fatal accidents between 2000 and 2014."
	m := newCleanModel(t, db, masked)
	queries, final := driveAgent(t, m, db, masked, "2")
	t.Logf("queries=%q final=%q", queries, final)
	if len(queries) < 2 {
		t.Fatalf("expected error-then-retry, got %d queries", len(queries))
	}
	if !strings.Contains(queries[0], "United Airlines") {
		t.Errorf("first query should use the alias: %q", queries[0])
	}
	last := queries[len(queries)-1]
	if !strings.Contains(last, "United / Continental") {
		t.Errorf("final query should use the grounded constant: %q", last)
	}
	if final != "2" {
		t.Errorf("final answer = %q", final)
	}
}

// TestAgentMultiHopDiff replays the Diff decomposition: MAX, then MIN, then
// the trivial subtraction query that reconstruction recomposes.
func TestAgentMultiHopDiff(t *testing.T) {
	db := agentDB(t)
	masked := "The gap between the highest and the lowest fatalities between 2000 and 2014 was x."
	m := newCleanModel(t, db, masked)
	queries, final := driveAgent(t, m, db, masked, "537")
	t.Logf("queries=%q final=%q", queries, final)
	if len(queries) != 3 {
		t.Fatalf("expected 3 hops, got %q", queries)
	}
	if !strings.Contains(queries[0], "MAX") || !strings.Contains(queries[1], "MIN") {
		t.Errorf("hop order: %q", queries)
	}
	if !strings.Contains(queries[2], "-") {
		t.Errorf("final hop should subtract: %q", queries[2])
	}
	if final != "537" {
		t.Errorf("final = %q", final)
	}
	// Reconstruction must recompose the trace into a self-contained query.
	rec := verify.Reconstruct(queries, db)
	v, err := sqldb.QueryScalar(db, rec)
	if err != nil {
		t.Fatalf("reconstructed %q: %v", rec, err)
	}
	if n, _ := v.AsInt(); n != 537 {
		t.Errorf("reconstructed result = %v", v)
	}
	if !strings.Contains(rec, "MAX") || !strings.Contains(rec, "MIN") {
		t.Errorf("reconstruction did not inline subqueries: %q", rec)
	}
}

// TestAgentDerailmentRate confirms the derailment knob manifests at roughly
// the configured probability across many distinct conversations.
func TestAgentDerailmentRate(t *testing.T) {
	db := agentDB(t)
	m, err := New(llm.ModelGPT4o, 123)
	if err != nil {
		t.Fatal(err)
	}
	derailed := 0
	const n = 200
	for i := 0; i < n; i++ {
		masked := "Malaysia Airlines recorded x fatal accidents between 2000 and 2014."
		base := strings.Repeat("pad ", i) + agentPrompt(db, masked, "ctx")
		resp, err := m.Complete(llm.Request{Model: llm.ModelGPT4o, Messages: []llm.Message{{Role: llm.RoleUser, Content: base}}})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Content, "Action:") && !strings.Contains(resp.Content, "Final Answer:") {
			derailed++
		}
	}
	rate := float64(derailed) / n
	want := m.Profile().DerailProb
	t.Logf("derailment rate %.3f (configured %.2f)", rate, want)
	if rate < want/2 || rate > want*2 {
		t.Errorf("derailment rate %.3f far from configured %.2f", rate, want)
	}
}

// TestAgentConversationCoherence: within one conversation (same base), the
// model's plan stays consistent across turns — the same first query is
// proposed when history is empty, regardless of how often it is asked.
func TestAgentConversationCoherence(t *testing.T) {
	db := agentDB(t)
	masked := "Malaysia Airlines recorded x fatal accidents between 2000 and 2014."
	m := newCleanModel(t, db, masked)
	base := agentPrompt(db, masked, "ctx "+masked)
	first := ""
	for i := 0; i < 3; i++ {
		resp, err := m.Complete(llm.Request{Model: llm.ModelGPT41, Messages: []llm.Message{{Role: llm.RoleUser, Content: base}}})
		if err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = resp.Content
		} else if resp.Content != first {
			t.Fatal("same conversation state produced different plans")
		}
	}
}

// TestAgentVariantExhaustion drives a claim whose value matches nothing:
// the agent cycles its alternative interpretations, returns to the original
// translation, and answers with its result — ensuring the last logged query
// is the one the agent trusts most.
func TestAgentVariantExhaustion(t *testing.T) {
	db := agentDB(t)
	masked := "A total of x fatalities between 2000 and 2014 were recorded across all airlines."
	m := newCleanModel(t, db, masked)
	// Claimed value far off every aggregate: feedback is always greater/smaller.
	queries, final := driveAgent(t, m, db, masked, "123456789")
	t.Logf("queries=%q final=%q", queries, final)
	if len(queries) < 2 {
		t.Fatalf("expected variant cycling, got %q", queries)
	}
	last := queries[len(queries)-1]
	if !strings.Contains(last, `SUM("fatalities_00_14")`) {
		t.Errorf("final query should return to the original SUM translation: %q", last)
	}
	if final == "" || final == "unknown" {
		t.Errorf("agent should answer with its best result, got %q", final)
	}
}
