package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/nl"
	"repro/internal/prompts"
)

// baseEndMarker terminates the agent's base prompt (the last line of the
// ReAct format instructions); everything after it is conversation history.
const baseEndMarker = `Final Answer: the value of "x"`

// histStep is one reconstructed tool interaction from the transcript.
type histStep struct {
	action      string
	input       string
	observation string
}

// agentStep produces the model's next ReAct turn given the full transcript.
// The policy is a pure function of the conversation: the model re-derives
// its plan from the base prompt (with randomness seeded by the base prompt,
// the temperature, and — at temperature > 0 — the model and request seeds,
// so one conversation stays coherent while retries with fresh request seeds
// differ) and advances according to the observations.
func (m *Model) agentStep(layout *prompts.Layout, req llm.Request) string {
	temperature := req.Temperature
	base, tail := splitBase(layout.Text())
	rng := m.conversationRNG(base, req)

	// Conversation derailment: the model drops out of the ReAct format and
	// the scaffolding cannot continue (the runner reports no progress).
	if rng.Float64() < m.profile.DerailProb {
		return "I apologize for the confusion. Let me reconsider the problem from the beginning and think about what the claim is really about."
	}

	baseLayout := layout.Prefix(len(base))
	masked, _, ok := baseLayout.Claim()
	if !ok {
		return finalAnswer("unknown")
	}
	schema := nl.SchemaOfPrompt(base)
	if len(schema.Tables) == 0 {
		return finalAnswer("unknown")
	}
	ctx := ""
	if m.profile.ReadsContext {
		ctx = baseLayout.Context()
	}
	hasSample := baseLayout.HasSample()

	parsed, err := nl.ParseMasked(masked, schema, m.lex, ctx)
	if err != nil {
		return finalAnswer("unknown")
	}
	spec := parsed.Spec

	// Initial translation mistakes mirror the one-shot path; the agent's
	// advantage is the chance to recover via tools.
	// Agents are more persistent than one-shot translation: a failed skill
	// roll usually yields a degraded attempt the feedback loop can still
	// salvage, and only sometimes a give-up.
	if rng.Float64() > m.profile.KindSkill[spec.Kind] {
		if rng.Float64() < 0.3 {
			return finalAnswer("unknown")
		}
		degradeKind(&spec)
	}
	if parsed.Ambiguous && len(parsed.ColumnCands) >= 2 && rng.Intn(2) == 0 {
		spec.Column = parsed.ColumnCands[1].Column
		spec.ConvFactor = parsed.ColumnCands[1].ConvFactor
	}
	if !m.profile.UnitSkill {
		spec.ConvFactor = 0
	}
	if rng.Float64() < m.noise(temperature, hasSample)+m.profile.AgentExtraNoise {
		corrupt(&spec, parsed, rng)
	}

	// Multi-table schemas strain agents too, though the iterative loop
	// recovers half of what a single completion would lose.
	if len(schema.Tables) > 1 && rng.Float64() > (m.profile.JoinSkill+1)/2 {
		return finalAnswer("unknown")
	}

	history := parseHistory(tail)
	if spec.Kind == nl.KindDiff || spec.Kind == nl.KindArgMax || spec.Kind == nl.KindArgMin {
		return m.multiHop(schema, &spec, history)
	}
	return m.singleHop(schema, &spec, parsed, history)
}

// conversationRNG derives the deterministic per-conversation randomness.
// Every turn of one conversation shares the same base prompt and request
// seed, so the whole trajectory replays coherently; at temperature > 0 the
// model and request seeds join the hash so seeded retries sample different
// trajectories (the runner keeps Request.Seed constant within a run).
func (m *Model) conversationRNG(base string, req llm.Request) *rand.Rand {
	h := fnvAdd(fnvAdd(fnvOffset64, m.profile.Name), base)
	h = fnvTemperature(h, req.Temperature)
	if req.Temperature > 0 {
		h = m.mixSampling(h, req)
	}
	return llm.NewRand(int64(h))
}

// singleHop drives claims answerable with one query, recovering from entity
// mismatches via the unique-values tool (the Example 5.3 flow) and from
// wrong-result feedback by trying alternative interpretations.
func (m *Model) singleHop(schema *nl.Schema, spec *nl.Spec, parsed *nl.Parsed, history []histStep) string {
	variants := buildVariants(spec, parsed)
	textCol, textVal := textConstant(spec)

	variantIdx := 0
	uniqueUsed := false
	fix := ""
	lastResult := "unknown"
	success := false
	lastWasError := false
	qCount := 0
	var lastQueryInput string

	for _, st := range history {
		switch st.action {
		case prompts.ToolUniqueValues:
			uniqueUsed = true
			if best, ok := bestMatch(st.observation, textVal); ok {
				fix = best
			}
		case prompts.ToolQuery:
			qCount++
			lastQueryInput = st.input
			lastWasError = false
			switch {
			case isSuccessObs(st.observation):
				success = true
				lastResult = resultOf(st.observation)
			case isErrorObs(st.observation):
				if textVal != "" && !uniqueUsed {
					lastWasError = true
				} else {
					variantIdx++
				}
			default:
				if r := resultOf(st.observation); r != "" {
					lastResult = r
				}
				variantIdx++
			}
		}
	}

	if success {
		return finalAnswer(lastResult)
	}
	if lastWasError && textVal != "" && !uniqueUsed {
		return actionStep(
			"The query failed, the constant may not match the data. I will inspect the distinct values of the relevant column.",
			prompts.ToolUniqueValues, textCol)
	}
	if qCount >= 6 {
		return finalAnswer(lastResult)
	}
	applyFix := func(v nl.Spec) nl.Spec {
		if fix != "" {
			if v.EntityVal != "" {
				v.EntityVal = fix
			} else if v.FilterIsText {
				v.FilterVal = fix
			}
		}
		return v
	}
	if variantIdx < len(variants) {
		v := applyFix(variants[variantIdx])
		sql, err := nl.BuildSQL(schema, &v)
		if err != nil {
			return finalAnswer(lastResult)
		}
		thought := "I will translate the claim into a SQL query and test it against the data."
		if variantIdx > 0 {
			thought = "The previous interpretation did not match; I will try an alternative reading of the claim."
		} else if fix != "" {
			thought = "Using the corrected constant from the column values, I will retry the query."
		}
		return actionStep(thought, prompts.ToolQuery, sql)
	}
	// Variants exhausted: re-issue the original (most trusted) translation
	// so it is the last logged query, then answer with its result.
	v := applyFix(variants[0])
	sql, err := nl.BuildSQL(schema, &v)
	if err != nil {
		return finalAnswer(lastResult)
	}
	if lastQueryInput == sql {
		return finalAnswer(lastResult)
	}
	return actionStep(
		"None of the alternatives matched the claimed value; I will return to my original translation.",
		prompts.ToolQuery, sql)
}

// multiHop drives Diff and ArgMax/ArgMin claims the way agents naturally
// decompose them: query the aggregate first, then use its result as a
// constant in the final query. The trivial final query is exactly what the
// query-reconstruction post-processing (Algorithm 9) recomposes.
func (m *Model) multiHop(schema *nl.Schema, spec *nl.Spec, history []histStep) string {
	var results []string
	for _, st := range history {
		if st.action != prompts.ToolQuery {
			continue
		}
		if isErrorObs(st.observation) {
			return finalAnswer("unknown")
		}
		results = append(results, resultOf(st.observation))
	}
	sql, done, err := m.planHop(schema, spec, results)
	if err != nil {
		return finalAnswer("unknown")
	}
	if done {
		if len(results) == 0 {
			return finalAnswer("unknown")
		}
		return finalAnswer(results[len(results)-1])
	}
	thought := "I will decompose the claim: first compute the intermediate aggregate, then use it in the final query."
	if len(results) > 0 {
		thought = fmt.Sprintf("The intermediate result is %s; I will use it as a constant in the next query.", results[len(results)-1])
	}
	return actionStep(thought, prompts.ToolQuery, sql)
}

// planHop returns the SQL for the next hop, or done=true when all hops ran.
func (m *Model) planHop(schema *nl.Schema, spec *nl.Spec, results []string) (string, bool, error) {
	switch spec.Kind {
	case nl.KindDiff:
		switch len(results) {
		case 0:
			s := nl.Spec{Kind: nl.KindMax, Column: spec.Column}
			sql, err := nl.BuildSQL(schema, &s)
			return sql, false, err
		case 1:
			s := nl.Spec{Kind: nl.KindMin, Column: spec.Column}
			sql, err := nl.BuildSQL(schema, &s)
			return sql, false, err
		case 2:
			return fmt.Sprintf("SELECT %s - %s", results[0], results[1]), false, nil
		default:
			return "", true, nil
		}
	case nl.KindArgMax, nl.KindArgMin:
		agg := nl.KindMax
		if spec.Kind == nl.KindArgMin {
			agg = nl.KindMin
		}
		switch len(results) {
		case 0:
			s := nl.Spec{Kind: agg, Column: spec.Column}
			sql, err := nl.BuildSQL(schema, &s)
			return sql, false, err
		case 1:
			from, err := nl.FromClause(schema, []string{spec.EntityCol, spec.Column})
			if err != nil {
				return "", false, err
			}
			return fmt.Sprintf(`SELECT "%s" FROM %s WHERE "%s" = %s`,
				spec.EntityCol, from, spec.Column, results[0]), false, nil
		default:
			return "", true, nil
		}
	}
	return "", true, nil
}

// buildVariants lists alternative interpretations in the order the agent
// tries them after wrong-result feedback.
func buildVariants(spec *nl.Spec, parsed *nl.Parsed) []nl.Spec {
	variants := []nl.Spec{*spec}
	if len(parsed.FilterCands) >= 2 && spec.FilterCol != "" {
		v := *spec
		if v.FilterCol == parsed.FilterCands[0].Column {
			v.FilterCol = parsed.FilterCands[1].Column
		} else {
			v.FilterCol = parsed.FilterCands[0].Column
		}
		variants = append(variants, v)
	}
	if len(parsed.ColumnCands) >= 2 && spec.Column != "" {
		v := *spec
		if v.Column == parsed.ColumnCands[0].Column {
			v.Column = parsed.ColumnCands[1].Column
			v.ConvFactor = parsed.ColumnCands[1].ConvFactor
		} else {
			v.Column = parsed.ColumnCands[0].Column
			v.ConvFactor = parsed.ColumnCands[0].ConvFactor
		}
		variants = append(variants, v)
	}
	// Unit toggle: if the parse detected a conversion the spec lost (or
	// vice versa), offer the other reading.
	if parsed.Spec.ConvFactor != spec.ConvFactor {
		v := *spec
		v.ConvFactor = parsed.Spec.ConvFactor
		variants = append(variants, v)
	} else if spec.ConvFactor != 0 && spec.ConvFactor != 1 {
		v := *spec
		v.ConvFactor = 0
		variants = append(variants, v)
	}
	switch spec.Kind {
	case nl.KindSum:
		v := *spec
		v.Kind = nl.KindAvg
		variants = append(variants, v)
	case nl.KindAvg:
		v := *spec
		v.Kind = nl.KindSum
		variants = append(variants, v)
	case nl.KindMax:
		v := *spec
		v.Kind = nl.KindMin
		variants = append(variants, v)
	case nl.KindMin:
		v := *spec
		v.Kind = nl.KindMax
		variants = append(variants, v)
	}
	if len(variants) > 4 {
		variants = variants[:4]
	}
	return variants
}

// textConstant returns the column and value of the spec's textual constant,
// the one an entity alias can break.
func textConstant(spec *nl.Spec) (col, val string) {
	if spec.EntityVal != "" {
		return spec.EntityCol, spec.EntityVal
	}
	if spec.FilterIsText && spec.FilterVal != "" {
		return spec.FilterCol, spec.FilterVal
	}
	return "", ""
}

// --- transcript reconstruction ---

func splitBase(prompt string) (base, tail string) {
	idx := strings.Index(prompt, baseEndMarker)
	if idx < 0 {
		return prompt, ""
	}
	cut := idx + len(baseEndMarker)
	return prompt[:cut], prompt[cut:]
}

// parseHistory reconstructs tool interactions from the conversation tail.
func parseHistory(tail string) []histStep {
	var steps []histStep
	var cur *histStep
	var obsLines []string
	inObs := false
	flush := func() {
		if cur != nil {
			cur.observation = strings.TrimSpace(strings.Join(obsLines, "\n"))
			steps = append(steps, *cur)
			cur = nil
		}
		obsLines = nil
		inObs = false
	}
	for _, line := range strings.Split(tail, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "Action:"):
			flush()
			cur = &histStep{action: strings.TrimSpace(strings.TrimPrefix(trimmed, "Action:"))}
		case strings.HasPrefix(trimmed, "Action Input:"):
			if cur != nil {
				cur.input = strings.TrimSpace(strings.TrimPrefix(trimmed, "Action Input:"))
			}
		case strings.HasPrefix(trimmed, "Observation:"):
			inObs = true
			obsLines = append(obsLines, strings.TrimSpace(strings.TrimPrefix(trimmed, "Observation:")))
		case strings.HasPrefix(trimmed, "Thought:"), strings.HasPrefix(trimmed, "Final Answer:"):
			if inObs {
				flush()
			}
		default:
			if inObs {
				obsLines = append(obsLines, trimmed)
			}
		}
	}
	flush()
	return steps
}

// Observation conventions produced by the verification tools.
const (
	obsResultPrefix = "Result:"
	obsErrorPrefix  = "Error:"
)

func isErrorObs(obs string) bool {
	return strings.HasPrefix(strings.TrimSpace(obs), obsErrorPrefix)
}

func isSuccessObs(obs string) bool {
	lower := strings.ToLower(obs)
	return strings.Contains(lower, "correct") ||
		strings.Contains(lower, "close") ||
		(strings.Contains(lower, "matched") && !strings.Contains(lower, "mismatched"))
}

// resultOf extracts the result value from a query observation.
func resultOf(obs string) string {
	for _, line := range strings.Split(obs, "\n") {
		line = strings.TrimSpace(line)
		if after, ok := strings.CutPrefix(line, obsResultPrefix); ok {
			return strings.TrimSpace(after)
		}
	}
	return ""
}

// bestMatch picks the listed value most similar to the constant using the
// embedding substrate — how the agent maps "the United States" to "USA".
// Matching head words get a bonus: display aliases usually keep the leading
// distinctive token ("United Airlines" for "United / Continental"), while
// trailing generic words ("Airlines") are shared across many values.
func bestMatch(obs, constant string) (string, bool) {
	if constant == "" {
		return "", false
	}
	constHead := headWord(constant)
	lines := strings.Split(obs, "\n")
	best, bestScore := "", -1.0
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasSuffix(line, ":") || strings.HasPrefix(line, obsErrorPrefix) {
			continue
		}
		s := embed.Similarity(constant, line)
		if constHead != "" && headWord(line) == constHead {
			s += 0.3
		}
		if s > bestScore {
			best, bestScore = line, s
		}
	}
	return best, best != ""
}

// headWord returns the first informative normalized word of a value
// (skipping leading articles).
func headWord(s string) string {
	for _, w := range strings.Fields(embed.Normalize(s)) {
		if w == "the" || w == "a" || w == "an" {
			continue
		}
		return w
	}
	return ""
}

// --- response rendering ---

func actionStep(thought, tool, input string) string {
	return fmt.Sprintf("Thought: %s\nAction: %s\nAction Input: %s", thought, tool, input)
}

func finalAnswer(value string) string {
	return fmt.Sprintf("Thought: I now know the final answer.\nFinal Answer: %s", value)
}
