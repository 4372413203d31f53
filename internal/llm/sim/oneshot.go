package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/embed"
	"repro/internal/nl"
	"repro/internal/prompts"
	"repro/internal/textutil"
)

// refusal is the model's no-SQL response; query extraction fails on it and
// the verification method counts as failed for this claim.
func (m *Model) refusal() string {
	return "I could not determine a SQL query that verifies this claim from the given schema."
}

// oneShot produces the response to a one-shot claim-to-SQL prompt
// (Algorithm 5's InvokeLLM step, seen from the model side).
func (m *Model) oneShot(layout *prompts.Layout, temperature float64, rng *rand.Rand) string {
	prompt := layout.Text()
	masked, _, ok := layout.Claim()
	if !ok {
		return m.refusal()
	}
	schema := nl.SchemaOfPrompt(prompt)
	if len(schema.Tables) == 0 {
		return m.refusal()
	}
	hasSample := layout.HasSample()
	ctx := ""
	if m.profile.ReadsContext {
		ctx = layout.Context()
	}

	// Unmasked prompts trigger the Figure 2 failure mode: the model takes
	// the shortcut of echoing the claimed value as a SQL constant.
	cheatValue := ""
	if !hasMaskToken(masked) {
		substituted, value, ok := substituteNumericValue(masked)
		if !ok {
			return m.refusal()
		}
		masked = substituted
		if rng.Float64() < m.profile.CheatProb {
			cheatValue = value
		}
	}

	parsed, err := nl.ParseMasked(masked, schema, m.lex, ctx)
	if err != nil {
		return m.refusal()
	}
	spec := parsed.Spec

	// Tier skill: weaker tiers mostly fail hard claim shapes outright
	// (producing no usable query) and sometimes mistranslate them into a
	// simpler shape.
	if rng.Float64() > m.profile.KindSkill[spec.Kind] {
		if rng.Float64() < 0.7 {
			return m.refusal()
		}
		degradeKind(&spec)
	}
	// Ambiguity: without context reading, ties between candidate columns
	// are broken by chance.
	if parsed.Ambiguous && len(parsed.ColumnCands) >= 2 && rng.Intn(2) == 0 {
		spec.Column = parsed.ColumnCands[1].Column
		spec.ConvFactor = parsed.ColumnCands[1].ConvFactor
	}
	// Unit skill: tiers without it translate the words but ignore the
	// conversion, producing magnitude-off results.
	if !m.profile.UnitSkill {
		spec.ConvFactor = 0
	}
	// Random corruption, reduced by few-shot samples.
	if rng.Float64() < m.noise(temperature, hasSample) {
		corrupt(&spec, parsed, rng)
	}
	// Prompts that inline example rows (the P1 "Create Table + Select 3"
	// template) let the model ground entity constants in actual data
	// values, occasionally fixing alias mismatches.
	if spec.EntityVal != "" {
		if fixed, ok := entityFromSampleRows(prompt, spec.EntityVal); ok {
			spec.EntityVal = fixed
		}
	}

	sql, err := nl.BuildSQL(schema, &spec)
	if err != nil {
		return m.refusal()
	}
	// Multi-table reasoning: queries that need joins exceed weaker tiers'
	// single-shot ability.
	if strings.Contains(sql, " JOIN ") && rng.Float64() > m.profile.JoinSkill {
		return m.refusal()
	}
	if cheatValue != "" {
		sql = cheatQuery(sql, &spec, cheatValue)
	}
	return m.wrapSQL(sql)
}

// The completion's text around its query.
const (
	wrapIntro  = "To find the value of \"x\" in the claim, I need to query the data"
	wrapFiller = ". Considering the schema and the claim wording, the relevant columns and predicates can be determined directly"
	wrapOpen   = ".\n" + prompts.SQLFence + "\n"
	wrapClose  = "\n```"
)

// wrapSQL renders a chatty completion around the fenced query, into one
// buffer of its exact size; verbosity drives completion-token cost.
func (m *Model) wrapSQL(sql string) string {
	fillers := max(m.profile.Verbosity-1, 0)
	var b strings.Builder
	b.Grow(len(wrapIntro) + fillers*len(wrapFiller) + len(wrapOpen) + len(sql) + len(wrapClose))
	b.WriteString(wrapIntro)
	for i := 0; i < fillers; i++ {
		b.WriteString(wrapFiller)
	}
	b.WriteString(wrapOpen)
	b.WriteString(sql)
	b.WriteString(wrapClose)
	return b.String()
}

// hasMaskToken reports whether the sentence contains the obfuscation token.
func hasMaskToken(sentence string) bool {
	for i := 0; ; {
		tok, next := textutil.NextToken(sentence, i)
		if tok == "" {
			return false
		}
		if tok == "x" || strings.TrimRight(tok, ".,;:") == "x" {
			return true
		}
		i = next
	}
}

// substituteNumericValue replaces the first standalone numeric token with
// "x", returning the substituted sentence and the value.
func substituteNumericValue(sentence string) (string, string, bool) {
	toks := textutil.Tokenize(sentence)
	for i, tok := range toks {
		bare := strings.TrimRight(tok, ".,;:")
		if _, ok := textutil.ParseNumber(bare); ok {
			span := textutil.Span{Start: i, End: i}
			return textutil.MaskSpan(sentence, span), bare, true
		}
	}
	return "", "", false
}

// entityFromSampleRows scans pipe-separated example rows embedded in the
// prompt for a cell highly similar to the entity constant, returning the
// grounded data value when found. Only values that actually appear among
// the (few) sampled rows can be fixed this way. Most prompts carry no rows,
// and are not split into lines at all.
func entityFromSampleRows(prompt, entity string) (string, bool) {
	if !strings.Contains(prompt, " | ") {
		return "", false
	}
	best, bestScore := "", 0.55 // require strong similarity to rewrite
	for _, line := range strings.Split(prompt, "\n") {
		if !strings.Contains(line, " | ") {
			continue
		}
		for _, cell := range strings.Split(line, " | ") {
			cell = strings.TrimSpace(cell)
			if cell == "" || cell == entity {
				continue
			}
			if s := embed.Similarity(entity, cell); s > bestScore {
				best, bestScore = cell, s
			}
		}
	}
	return best, best != ""
}

// cheatQuery appends the claimed value as a constant, the failure mode of
// Figure 2: an equality conjunct on the measure column when a WHERE clause
// exists, otherwise a bare constant SELECT.
func cheatQuery(sql string, spec *nl.Spec, value string) string {
	if spec.Column != "" && strings.Contains(sql, "WHERE") {
		return fmt.Sprintf(`%s AND "%s" = %s`, sql, spec.Column, value)
	}
	return "SELECT " + value
}

// degradeKind rewrites a spec into the simpler shape a weak model falls
// back to when it cannot handle the claim's real structure.
func degradeKind(spec *nl.Spec) {
	switch spec.Kind {
	case nl.KindPercent:
		spec.Kind = nl.KindCount
	case nl.KindMode:
		// Weak models confuse "most common value" with "value of the row
		// with the most entries" and fall back to counting.
		spec.Kind = nl.KindCountAll
		spec.EntityCol = spec.Column
		spec.Column = ""
	case nl.KindDiff:
		spec.Kind = nl.KindMax
	case nl.KindArgMax:
		spec.Kind = nl.KindMax
		spec.EntityCol = ""
	case nl.KindArgMin:
		spec.Kind = nl.KindMin
		spec.EntityCol = ""
	case nl.KindAvg:
		spec.Kind = nl.KindSum
	case nl.KindSum:
		spec.Kind = nl.KindAvg
	case nl.KindCount:
		spec.Kind = nl.KindCountAll
		if spec.EntityCol == "" {
			spec.EntityCol = spec.FilterCol
		}
		spec.FilterCol = ""
	default:
		// Lookup/CountAll degrade by dropping predicates.
		spec.FilterCol = ""
	}
}

// corrupt applies one random realistic mistake to the spec.
func corrupt(spec *nl.Spec, parsed *nl.Parsed, rng *rand.Rand) {
	var options []func()
	if len(parsed.ColumnCands) >= 2 && spec.Column != "" {
		options = append(options, func() {
			spec.Column = parsed.ColumnCands[1].Column
			spec.ConvFactor = parsed.ColumnCands[1].ConvFactor
		})
	}
	if len(parsed.FilterCands) >= 2 {
		options = append(options, func() { spec.FilterCol = parsed.FilterCands[1].Column })
	}
	if spec.FilterCol != "" && (spec.Kind == nl.KindSum || spec.Kind == nl.KindAvg) {
		options = append(options, func() { spec.FilterCol = "" })
	}
	switch spec.Kind {
	case nl.KindSum:
		options = append(options, func() { spec.Kind = nl.KindAvg })
	case nl.KindAvg:
		options = append(options, func() { spec.Kind = nl.KindSum })
	case nl.KindMax:
		options = append(options, func() { spec.Kind = nl.KindMin })
	case nl.KindMin:
		options = append(options, func() { spec.Kind = nl.KindMax })
	case nl.KindArgMax:
		options = append(options, func() { spec.Kind = nl.KindArgMin })
	}
	if spec.ConvFactor != 0 && spec.ConvFactor != 1 {
		options = append(options, func() { spec.ConvFactor = 0 })
	}
	if spec.EntityVal != "" {
		options = append(options, func() {
			spec.EntityVal = strings.TrimPrefix(spec.EntityVal, "the ")
			spec.EntityVal = strings.ToLower(spec.EntityVal)
		})
	}
	if len(options) == 0 {
		// No structural corruption applies; flip to a count of everything.
		spec.Kind = nl.KindCountAll
		if spec.EntityCol == "" {
			spec.EntityCol = spec.Column
		}
		return
	}
	options[rng.Intn(len(options))]()
}
