package nl

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/embed"
	"repro/internal/textutil"
)

// Candidate is one possible resolution of a phrase to a schema column.
type Candidate struct {
	Column string
	// Score in [0,1] measures how well the phrase matches the column.
	Score float64
	// ConvFactor is non-zero when the phrase matched a unit-converted
	// variant of the column's canonical phrase.
	ConvFactor float64
}

// Parsed is the result of parsing a masked claim sentence: the best-guess
// spec plus ranked alternatives that a model may (mis)choose between.
type Parsed struct {
	Spec Spec
	// ColumnCands ranks resolutions for the measure column (first is the
	// one installed in Spec).
	ColumnCands []Candidate
	// FilterCands ranks resolutions for the filter column.
	FilterCands []Candidate
	// Ambiguous reports that the top two measure-column candidates score
	// within ambiguityMargin of each other.
	Ambiguous bool
}

// ErrUnparseable indicates the sentence matches no known claim template,
// the situation in which a real LLM produces an unusable translation.
var ErrUnparseable = errors.New("nl: sentence matches no claim template")

const ambiguityMargin = 0.08

// ParseMasked parses a masked claim sentence (value replaced by "x") into a
// Parsed spec against the given schema. ctx is the masked context paragraph;
// when non-empty it is used to disambiguate underspecified column phrases,
// which is why stronger simulated models (that read context) resolve
// ambiguity hazards better than weaker ones (that ignore it).
func ParseMasked(masked string, schema *Schema, lex *Lexicon, ctx string) (*Parsed, error) {
	return parseTemplates(masked, schema, &compiledResolver{schema: schema, lex: lex, ctx: ctx})
}

// parseTemplates matches the sentence against the claim templates, resolving
// their column and table phrases through r.
func parseTemplates(masked string, schema *Schema, r resolver) (*Parsed, error) {
	s := normalizeVerbs(strings.TrimSpace(masked))
	switch {
	case strings.HasPrefix(s, cueCountAll):
		return parseCountAll(s, r)
	case strings.HasPrefix(s, cueCount) && !strings.HasPrefix(s, cueCountAll):
		return parseCount(s, schema, r)
	case strings.HasPrefix(s, cueSum):
		return parseSum(s, schema, r)
	case strings.HasPrefix(s, cueAvg):
		return parseAvg(s, schema, r)
	case strings.HasPrefix(s, cueDiff):
		return parseAggOnly(s, cueDiff, KindDiff, " was x.", r)
	case strings.HasPrefix(s, cueMax):
		return parseAggOnly(s, cueMax, KindMax, " recorded was x.", r)
	case strings.HasPrefix(s, cueMin):
		return parseAggOnly(s, cueMin, KindMin, " recorded was x.", r)
	case strings.Contains(s, cuePercent):
		return parsePercent(s, schema, r)
	case strings.Contains(s, cueMode):
		return parseMode(s, r)
	case strings.Contains(s, cueArgMax):
		return parseArg(s, cueArgMax, KindArgMax, schema, r)
	case strings.Contains(s, cueArgMin):
		return parseArg(s, cueArgMin, KindArgMin, schema, r)
	case strings.Contains(s, cueRecorded):
		return parseLookup(s, schema, r)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnparseable, truncateStr(masked, 80))
}

// normalizeVerbs maps the claim-verb synonyms to the canonical "recorded"
// so every template matcher sees one verb. Superlative cues ("recorded the
// highest") are phrased with the canonical verb only, so plain substitution
// is safe.
func normalizeVerbs(s string) string {
	for _, v := range ClaimVerbs[1:] {
		s = strings.ReplaceAll(s, " "+v+" ", " recorded ")
	}
	return s
}

func truncateStr(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func trimSentence(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), ".")
}

// --- template parsers ---

func parseCountAll(s string, r resolver) (*Parsed, error) {
	rest := trimSentence(strings.TrimPrefix(s, cueCountAll))
	// rest = "x <noun>"
	if !strings.HasPrefix(rest, "x ") {
		return nil, fmt.Errorf("%w: CountAll without masked value", ErrUnparseable)
	}
	noun := strings.TrimPrefix(rest, "x ")
	table := r.table(noun)
	if table == nil {
		return nil, fmt.Errorf("%w: no table for noun %q", ErrUnparseable, noun)
	}
	ent := EntityColumnOf(table)
	if ent == "" {
		return nil, fmt.Errorf("%w: no entity column in table %q", ErrUnparseable, table.Name)
	}
	return &Parsed{Spec: Spec{Kind: KindCountAll, EntityCol: ent, Noun: noun}}, nil
}

func parseCount(s string, schema *Schema, r resolver) (*Parsed, error) {
	rest := trimSentence(strings.TrimPrefix(s, cueCount))
	// rest = "x <noun> recorded <filterphrase> of <fv>"
	if !strings.HasPrefix(rest, "x ") {
		return nil, fmt.Errorf("%w: Count without masked value", ErrUnparseable)
	}
	rest = strings.TrimPrefix(rest, "x ")
	noun, tail, ok := strings.Cut(rest, cueRecorded)
	if !ok {
		return nil, fmt.Errorf("%w: Count without verb", ErrUnparseable)
	}
	phrase, fv, ok := cutLast(tail, " of ")
	if !ok {
		return nil, fmt.Errorf("%w: Count without filter value", ErrUnparseable)
	}
	cands := r.column(phrase)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no column for %q", ErrUnparseable, phrase)
	}
	p := &Parsed{
		Spec: Spec{
			Kind:         KindCount,
			FilterCol:    cands[0].Column,
			FilterVal:    fv,
			FilterIsText: schema.IsTextColumn(cands[0].Column) || !textutil.IsNumeric(fv),
			Noun:         noun,
		},
		FilterCands: cands,
	}
	return p, nil
}

func parseSum(s string, schema *Schema, r resolver) (*Parsed, error) {
	rest := trimSentence(strings.TrimPrefix(s, cueSum))
	// rest = "x <colphrase> were recorded across all <noun>"
	//      | "x <colphrase> were recorded across <noun> with <filterphrase> of <fv>"
	if !strings.HasPrefix(rest, "x ") {
		return nil, fmt.Errorf("%w: Sum without masked value", ErrUnparseable)
	}
	rest = strings.TrimPrefix(rest, "x ")
	phrase, tail, ok := strings.Cut(rest, " were recorded across ")
	if !ok {
		return nil, fmt.Errorf("%w: Sum without across clause", ErrUnparseable)
	}
	cands := r.column(phrase)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no column for %q", ErrUnparseable, phrase)
	}
	p := &Parsed{ColumnCands: cands, Ambiguous: ambiguous(cands)}
	p.Spec = Spec{Kind: KindSum, Column: cands[0].Column, ConvFactor: cands[0].ConvFactor}
	if after, ok := strings.CutPrefix(tail, "all "); ok {
		p.Spec.Noun = after
		return p, nil
	}
	noun, filterPart, ok := strings.Cut(tail, " with ")
	if !ok {
		p.Spec.Noun = tail
		return p, nil
	}
	p.Spec.Noun = noun
	fPhrase, fv, ok := cutLast(filterPart, " of ")
	if !ok {
		return nil, fmt.Errorf("%w: Sum filter without value", ErrUnparseable)
	}
	fc := r.column(fPhrase)
	if len(fc) == 0 {
		return nil, fmt.Errorf("%w: no filter column for %q", ErrUnparseable, fPhrase)
	}
	p.FilterCands = fc
	p.Spec.FilterCol = fc[0].Column
	p.Spec.FilterVal = fv
	p.Spec.FilterIsText = schema.IsTextColumn(fc[0].Column) || !textutil.IsNumeric(fv)
	return p, nil
}

func parseAvg(s string, schema *Schema, r resolver) (*Parsed, error) {
	rest := trimSentence(strings.TrimPrefix(s, cueAvg))
	// rest = "<noun> recorded x <colphrase>"
	//      | "<noun> with <filterphrase> of <fv> recorded x <colphrase>"
	head, tail, ok := strings.Cut(rest, " recorded x ")
	if !ok {
		return nil, fmt.Errorf("%w: Avg without masked value", ErrUnparseable)
	}
	cands := r.column(tail)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no column for %q", ErrUnparseable, tail)
	}
	p := &Parsed{ColumnCands: cands, Ambiguous: ambiguous(cands)}
	p.Spec = Spec{Kind: KindAvg, Column: cands[0].Column, ConvFactor: cands[0].ConvFactor}
	if noun, filterPart, ok := strings.Cut(head, " with "); ok {
		fPhrase, fv, ok2 := cutLast(filterPart, " of ")
		if !ok2 {
			return nil, fmt.Errorf("%w: Avg filter without value", ErrUnparseable)
		}
		fc := r.column(fPhrase)
		if len(fc) == 0 {
			return nil, fmt.Errorf("%w: no filter column for %q", ErrUnparseable, fPhrase)
		}
		p.FilterCands = fc
		p.Spec.Noun = noun
		p.Spec.FilterCol = fc[0].Column
		p.Spec.FilterVal = fv
		p.Spec.FilterIsText = schema.IsTextColumn(fc[0].Column) || !textutil.IsNumeric(fv)
	} else {
		p.Spec.Noun = head
	}
	return p, nil
}

func parseAggOnly(s, cue string, kind Kind, suffix string, r resolver) (*Parsed, error) {
	rest := strings.TrimPrefix(s, cue)
	idx := strings.LastIndex(rest, suffix)
	if idx < 0 {
		return nil, fmt.Errorf("%w: %v without value suffix", ErrUnparseable, kind)
	}
	phrase := rest[:idx]
	cands := r.column(phrase)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no column for %q", ErrUnparseable, phrase)
	}
	return &Parsed{
		Spec:        Spec{Kind: kind, Column: cands[0].Column, ConvFactor: cands[0].ConvFactor},
		ColumnCands: cands,
		Ambiguous:   ambiguous(cands),
	}, nil
}

func parsePercent(s string, schema *Schema, r resolver) (*Parsed, error) {
	// "About x percent of the <noun> recorded <filterphrase> of <fv>."
	_, rest, ok := strings.Cut(s, cuePercent)
	if !ok {
		return nil, fmt.Errorf("%w: Percent cue missing", ErrUnparseable)
	}
	rest = trimSentence(rest)
	noun, tail, ok := strings.Cut(rest, cueRecorded)
	if !ok {
		return nil, fmt.Errorf("%w: Percent without verb", ErrUnparseable)
	}
	fPhrase, fv, ok := cutLast(tail, " of ")
	if !ok {
		return nil, fmt.Errorf("%w: Percent without filter value", ErrUnparseable)
	}
	fc := r.column(fPhrase)
	if len(fc) == 0 {
		return nil, fmt.Errorf("%w: no filter column for %q", ErrUnparseable, fPhrase)
	}
	table := r.table(noun)
	ent := ""
	if table != nil {
		ent = EntityColumnOf(table)
	}
	return &Parsed{
		Spec: Spec{
			Kind:         KindPercent,
			EntityCol:    ent,
			FilterCol:    fc[0].Column,
			FilterVal:    fv,
			FilterIsText: schema.IsTextColumn(fc[0].Column) || !textutil.IsNumeric(fv),
			Noun:         noun,
		},
		FilterCands: fc,
	}, nil
}

func parseArg(s, cue string, kind Kind, schema *Schema, r resolver) (*Parsed, error) {
	// "x recorded the highest <colphrase> of all <noun>."
	_, rest, ok := strings.Cut(s, cue)
	if !ok {
		return nil, fmt.Errorf("%w: Arg cue missing", ErrUnparseable)
	}
	rest = trimSentence(rest)
	phrase, noun, ok := cutLast(rest, " of all ")
	if !ok {
		return nil, fmt.Errorf("%w: Arg without noun", ErrUnparseable)
	}
	cands := r.column(phrase)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no column for %q", ErrUnparseable, phrase)
	}
	table := r.table(noun)
	ent := ""
	if table != nil {
		ent = EntityColumnOf(table)
	}
	if ent == "" {
		ent = firstEntityColumn(schema)
	}
	if ent == "" {
		return nil, fmt.Errorf("%w: no entity column for Arg claim", ErrUnparseable)
	}
	return &Parsed{
		Spec:        Spec{Kind: kind, Column: cands[0].Column, EntityCol: ent, Noun: noun},
		ColumnCands: cands,
		Ambiguous:   ambiguous(cands),
	}, nil
}

func parseMode(s string, r resolver) (*Parsed, error) {
	// "x is the most common <colphrase> among the <noun>."
	_, rest, ok := strings.Cut(s, cueMode)
	if !ok {
		return nil, fmt.Errorf("%w: Mode cue missing", ErrUnparseable)
	}
	rest = trimSentence(rest)
	phrase, _, ok := cutLast(rest, " among the ")
	if !ok {
		phrase = rest
	}
	cands := r.column(phrase)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no column for %q", ErrUnparseable, phrase)
	}
	return &Parsed{
		Spec:        Spec{Kind: KindMode, Column: cands[0].Column},
		ColumnCands: cands,
		Ambiguous:   ambiguous(cands),
	}, nil
}

func parseLookup(s string, schema *Schema, r resolver) (*Parsed, error) {
	// "<entity> recorded x <colphrase>."
	entity, tail, ok := strings.Cut(trimSentence(s), " recorded x ")
	if !ok {
		return nil, fmt.Errorf("%w: Lookup without masked value", ErrUnparseable)
	}
	cands := r.column(tail)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no column for %q", ErrUnparseable, tail)
	}
	// The entity column is guessed from headers: prefer the entity column
	// of a table that owns the measure column, else any entity column.
	ent := ""
	for _, t := range schema.Tables {
		if t.HasColumn(cands[0].Column) {
			if e := EntityColumnOf(&t); e != "" {
				ent = e
				break
			}
		}
	}
	if ent == "" {
		ent = firstEntityColumn(schema)
	}
	if ent == "" {
		return nil, fmt.Errorf("%w: no entity column for Lookup", ErrUnparseable)
	}
	return &Parsed{
		Spec: Spec{
			Kind:       KindLookup,
			Column:     cands[0].Column,
			EntityCol:  ent,
			EntityVal:  entity,
			ConvFactor: cands[0].ConvFactor,
		},
		ColumnCands: cands,
		Ambiguous:   ambiguous(cands),
	}, nil
}

// --- resolution helpers ---

// resolver maps the phrases of one claim to schema columns and tables. The
// template parsers above are written against it so the differential tests
// can run them over the uncompiled reference resolution.
type resolver interface {
	// column ranks all schema columns against a phrase.
	column(phrase string) []Candidate
	// table maps a plural noun to the best-matching schema table.
	table(noun string) *SchemaTable
}

// compiledResolver resolves against the lexicon's compiled columns
// (compile.go). One is built per ParseMasked call.
type compiledResolver struct {
	schema *Schema
	lex    *Lexicon
	ctx    string
	// ctxNorm is " "+Normalize(ctx)+" ", built by the first column that
	// needs a context boost.
	ctxNorm string
}

// column considers each column's canonical phrase, underspecified short
// phrase, raw header, and unit-converted phrase variants. When ctx is
// non-empty, candidates whose distinguishing tokens occur in the context get
// boosted — the mechanism by which context reading disambiguates "fatal
// accidents" into the right period column.
func (r *compiledResolver) column(phrase string) []Candidate {
	phrase = strings.TrimSpace(phrase)
	if phrase == "" {
		return nil
	}
	phraseVec := embed.EmbedSparse(phrase)
	// Candidates collect on the stack; the result is one exact copy.
	var (
		candBuf  [16]Candidate
		lowerBuf [16]string
		cands    = candBuf[:0]
		lowers   = lowerBuf[:0] // cands[i]'s column name, lower-cased
		have     []string       // the phrase's normalized tokens, for context boosts
	)
	compiled := r.lex.compiled.snapshot()
	for _, t := range r.schema.Tables {
	columns:
		for i := range t.Columns {
			c := &t.Columns[i]
			lower := c.lowerName()
			cc := compiled[lower]
			if cc == nil {
				cc = r.lex.compiled.add(r.lex, lower)
			}
			best, factor := cc.score(&phraseVec)
			if best <= 0.3 {
				continue
			}
			// A name that occurs in several tables counts once, under its
			// first spelling. Its score depends on the lower-cased name
			// only, so a repeat can only show up among the candidates.
			for _, seen := range lowers {
				if seen == lower {
					continue columns
				}
			}
			if r.ctx != "" {
				if r.ctxNorm == "" {
					r.ctxNorm = " " + embed.Normalize(r.ctx) + " "
				}
				if have == nil {
					have = strings.Fields(embed.Normalize(phrase))
				}
				best += cc.contextBoost(have, r.ctxNorm)
			}
			cands = append(cands, Candidate{Column: c.Name, Score: best, ConvFactor: factor})
			lowers = append(lowers, lower)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// Stable ranking: by score descending, ties by name for determinism.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && less(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return append([]Candidate(nil), cands...)
}

func less(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Column < b.Column
}

func ambiguous(cands []Candidate) bool {
	return len(cands) >= 2 && cands[0].Score-cands[1].Score < ambiguityMargin
}

func (r *compiledResolver) table(noun string) *SchemaTable {
	schema := r.schema
	nounVec := embed.EmbedSparse(noun)
	var best *SchemaTable
	bestScore := 0.0
	for i := range schema.Tables {
		t := &schema.Tables[i]
		vec := embed.Embed(r.lex.TableNoun(t.Name))
		score := nounVec.Cosine(&vec)
		vec = embed.Embed(t.Name)
		if s2 := nounVec.Cosine(&vec); s2 > score {
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

func firstEntityColumn(schema *Schema) string {
	for i := range schema.Tables {
		if e := EntityColumnOf(&schema.Tables[i]); e != "" {
			return e
		}
	}
	return ""
}

// cutLast splits s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, ok bool) {
	idx := strings.LastIndex(s, sep)
	if idx < 0 {
		return s, "", false
	}
	return s[:idx], s[idx+len(sep):], true
}
