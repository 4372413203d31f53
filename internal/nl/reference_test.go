package nl

import (
	"strings"
	"sync"

	"repro/internal/embed"
)

// The column and table resolution ParseMasked used before the lexicon
// compiled its columns (compile.go), kept word for word as the oracle of the
// differential tests: every variant list rebuilt per column per call, dense
// vectors and embed.Cosine throughout. referenceParseMasked runs the
// unchanged template parsers over it.

type referenceResolver struct {
	schema *Schema
	lex    *Lexicon
	ctx    string
}

func (r referenceResolver) column(phrase string) []Candidate {
	return referenceResolveColumn(phrase, r.schema, r.lex, r.ctx)
}

func (r referenceResolver) table(noun string) *SchemaTable {
	return referenceResolveTable(noun, r.schema, r.lex)
}

func referenceParseMasked(masked string, schema *Schema, lex *Lexicon, ctx string) (*Parsed, error) {
	return parseTemplates(masked, schema, referenceResolver{schema, lex, ctx})
}

// referenceVariantVecs memoizes variant embeddings by text, as the replaced
// code did; it only keeps the corpus-wide differential quick.
var referenceVariantVecs sync.Map // string -> embed.Vector

func referenceVariantVec(text string) embed.Vector {
	if v, ok := referenceVariantVecs.Load(text); ok {
		return v.(embed.Vector)
	}
	vec := embed.Embed(text)
	referenceVariantVecs.Store(text, vec)
	return vec
}

// referenceResolveColumn ranks all schema columns against a phrase, considering each
// column's canonical phrase, underspecified short phrase, raw header, and
// unit-converted phrase variants. When ctx is non-empty, candidates whose
// distinguishing tokens occur in the context get boosted — the mechanism by
// which context reading disambiguates "fatal accidents" into the right
// period column.
func referenceResolveColumn(phrase string, schema *Schema, lex *Lexicon, ctx string) []Candidate {
	phrase = strings.TrimSpace(phrase)
	if phrase == "" {
		return nil
	}
	ctxNorm := " " + embed.Normalize(ctx) + " "
	phraseVec := embed.Embed(phrase)
	var cands []Candidate
	seen := map[string]bool{}
	for _, t := range schema.Tables {
		for _, c := range t.Columns {
			lower := strings.ToLower(c.Name)
			if seen[lower] {
				continue
			}
			seen[lower] = true
			best, factor := referenceScoreColumn(phraseVec, c.Name, lex)
			if best <= 0.3 {
				continue
			}
			if ctx != "" {
				best += referenceContextBoost(phrase, c.Name, lex, ctxNorm)
			}
			cands = append(cands, Candidate{Column: c.Name, Score: best, ConvFactor: factor})
		}
	}
	// Stable ranking: by score descending, ties by name for determinism.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && less(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return cands
}

// referenceScoreColumn returns the best similarity between the (pre-embedded)
// phrase and any verbalization of the column, plus the conversion factor if
// the best match was a unit-converted variant.
func referenceScoreColumn(phraseVec embed.Vector, col string, lex *Lexicon) (float64, float64) {
	variants := []struct {
		text   string
		factor float64
	}{
		{lex.ColumnPhrase(col), 0},
		{strings.ReplaceAll(strings.ToLower(col), "_", " "), 0},
	}
	if short := lex.ShortPhrase(col); short != "" {
		variants = append(variants, struct {
			text   string
			factor float64
		}{short, 0})
	}
	if baseUnit := lex.ColumnUnit(col); baseUnit != "" {
		full := lex.ColumnPhrase(col)
		for _, u := range lex.Units {
			if u.From == baseUnit && strings.Contains(full, baseUnit) {
				variants = append(variants, struct {
					text   string
					factor float64
				}{strings.Replace(full, baseUnit, u.To, 1), u.Factor})
			}
		}
	}
	best, bestFactor := 0.0, 0.0
	for _, v := range variants {
		s := embed.Cosine(phraseVec, referenceVariantVec(v.text))
		if s > best {
			best = s
			bestFactor = v.factor
		}
	}
	return best, bestFactor
}

// referenceContextBoost rewards a candidate column whose full-phrase tokens beyond
// the given phrase occur in the context, e.g. context mentioning "between
// 2000 and 2014" boosts fatal_accidents_00_14 over fatal_accidents_85_99.
func referenceContextBoost(phrase, col string, lex *Lexicon, ctxNorm string) float64 {
	full := embed.Normalize(lex.ColumnPhrase(col))
	have := map[string]bool{}
	for _, tok := range strings.Fields(embed.Normalize(phrase)) {
		have[tok] = true
	}
	extra, found := 0, 0
	for _, tok := range strings.Fields(full) {
		if have[tok] {
			continue
		}
		extra++
		if strings.Contains(ctxNorm, " "+tok+" ") {
			found++
		}
	}
	if extra == 0 || found == 0 {
		return 0
	}
	return 0.2 * float64(found) / float64(extra)
}

// referenceResolveTable maps a plural noun to the best-matching schema table.
func referenceResolveTable(noun string, schema *Schema, lex *Lexicon) *SchemaTable {
	var best *SchemaTable
	bestScore := 0.0
	for i := range schema.Tables {
		t := &schema.Tables[i]
		score := embed.Similarity(noun, lex.TableNoun(t.Name))
		if s2 := embed.Similarity(noun, t.Name); s2 > score {
			score = s2
		}
		if score > bestScore {
			bestScore = score
			best = t
		}
	}
	if bestScore <= 0.2 && len(schema.Tables) > 0 {
		// Fall back to the first table with an entity column, the way a
		// model defaults to "the main table".
		for i := range schema.Tables {
			if EntityColumnOf(&schema.Tables[i]) != "" {
				return &schema.Tables[i]
			}
		}
		return &schema.Tables[0]
	}
	return best
}
