package data

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/claim"
	"repro/internal/nl"
	"repro/internal/sqldb"
	"repro/internal/textutil"
)

// GenConfig controls document/claim generation.
type GenConfig struct {
	// Seed drives all randomness; equal seeds reproduce the corpus.
	Seed int64
	// Docs is the number of documents to generate.
	Docs int
	// ClaimsPerDoc is the number of claims per document.
	ClaimsPerDoc int
	// IncorrectRate is the fraction of claims whose value is perturbed.
	IncorrectRate float64
	// AliasRate is the probability that an entity constant is rendered via
	// a display alias absent from the data (the Example 5.3 hazard).
	AliasRate float64
	// ShortPhraseRate is the probability that an ambiguous short column
	// phrase is used where one exists.
	ShortPhraseRate float64
	// UnitConvertRate is the probability that a claim about a unit-bearing
	// column is expressed in a converted unit.
	UnitConvertRate float64
	// Textual switches generation to textual claims (ArgMax/ArgMin over
	// entity columns) instead of numeric ones.
	Textual bool
	// KindWeights gives the relative frequency of each claim kind; nil
	// uses a default numeric mix.
	KindWeights map[nl.Kind]int
	// Domains cycles document domains; nil uses all four AggChecker
	// domains.
	Domains []string
	// RowsPerTable caps table sizes (0 = full entity pool).
	RowsPerTable int
}

// defaultNumericWeights approximates the AggChecker query-complexity
// profile of Table 3: mostly single-aggregate queries, about half involving
// a subquery (Percent contributes two).
var defaultNumericWeights = map[nl.Kind]int{
	nl.KindLookup:   22,
	nl.KindCountAll: 4,
	nl.KindCount:    14,
	nl.KindSum:      14,
	nl.KindAvg:      12,
	nl.KindMin:      6,
	nl.KindMax:      8,
	nl.KindDiff:     5,
	nl.KindArgMax:   0, // textual kinds excluded from numeric corpora
	nl.KindArgMin:   0,
	nl.KindPercent:  15,
}

var textualWeights = map[nl.Kind]int{
	nl.KindArgMax: 3,
	nl.KindArgMin: 2,
	nl.KindMode:   2,
}

// Generate builds a document corpus under the given configuration.
func Generate(cfg GenConfig) ([]*claim.Document, error) {
	g := &generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		lex: nl.DefaultLexicon(),
	}
	if g.cfg.Domains == nil {
		g.cfg.Domains = []string{Domain538, DomainStackOverflow, DomainNYTimes, DomainWikipedia}
	}
	if g.cfg.KindWeights == nil {
		if cfg.Textual {
			g.cfg.KindWeights = textualWeights
		} else {
			g.cfg.KindWeights = defaultNumericWeights
		}
	}
	var docs []*claim.Document
	for i := 0; i < cfg.Docs; i++ {
		domain := g.cfg.Domains[i%len(g.cfg.Domains)]
		doc, err := g.genDocument(fmt.Sprintf("doc-%03d", i+1), domain)
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

type generator struct {
	cfg GenConfig
	rng *rand.Rand
	lex *nl.Lexicon
}

func (g *generator) genDocument(id, domain string) (*claim.Document, error) {
	tables := domainTables[domain]
	if len(tables) == 0 {
		return nil, fmt.Errorf("data: no tables for domain %q", domain)
	}
	// Each document gets one freshly randomized table; documents in the
	// same domain rotate through the domain's table specs.
	tn := tables[g.rng.Intn(len(tables))]
	db, err := BuildDatabase(fmt.Sprintf("%s_%s", tn, id), g.rng, g.cfg.RowsPerTable, tn)
	if err != nil {
		return nil, err
	}
	doc := &claim.Document{
		ID:     id,
		Title:  fmt.Sprintf("A summary of the %s data", tn),
		Domain: domain,
		Data:   db,
	}
	schema := nl.SchemaFromDatabase(db)
	spec := corpusTables[tn]
	for len(doc.Claims) < g.cfg.ClaimsPerDoc {
		c, err := g.genClaim(fmt.Sprintf("%s-c%02d", id, len(doc.Claims)+1), db, schema, spec)
		if err != nil {
			// Unsatisfiable draw (ties, empty filters); redraw.
			continue
		}
		doc.Claims = append(doc.Claims, c)
	}
	return doc, nil
}

// genClaim draws one claim: a spec, its gold SQL and value, a (possibly
// perturbed) display value, and the rendered sentence with hazards.
func (g *generator) genClaim(id string, db *sqldb.Database, schema *nl.Schema, ts tableSpec) (*claim.Claim, error) {
	kind := g.drawKind()
	spec, colPhrase, entityDisplay, hint, err := g.drawSpec(kind, db, ts)
	if err != nil {
		return nil, err
	}
	goldSQL, err := nl.BuildSQL(schema, spec)
	if err != nil {
		return nil, err
	}
	goldVal, err := sqldb.QueryScalar(db, goldSQL)
	if err != nil || goldVal.IsNull() {
		return nil, fmt.Errorf("data: gold query unusable: %w", err)
	}

	correct := g.rng.Float64() >= g.cfg.IncorrectRate
	display, err := g.displayValue(goldVal, correct, db, spec)
	if err != nil {
		return nil, err
	}
	// Avoid the pathological coincidence of the claim value equalling the
	// filter constant: masking would leave an identical token in the
	// sentence and the span would be ambiguous to a reader.
	if spec.FilterVal != "" && display == spec.FilterVal {
		return nil, fmt.Errorf("data: claim value collides with filter constant")
	}

	sentence := nl.RenderSentence(spec, g.lex, nl.RenderOptions{
		Value:         display,
		ColumnPhrase:  colPhrase,
		EntityDisplay: entityDisplay,
		Verb:          nl.ClaimVerbs[g.rng.Intn(len(nl.ClaimVerbs))],
	})
	span, ok := textutil.FindValueSpan(sentence, display)
	if !ok {
		return nil, fmt.Errorf("data: value %q not locatable in %q", display, sentence)
	}
	intro := fmt.Sprintf("This article summarizes data about %s.", ts.noun)
	parts := []string{intro, sentence}
	if hint != "" {
		parts = append(parts, hint)
	}
	context := strings.Join(parts, " ")

	return &claim.Claim{
		ID:       id,
		Sentence: sentence,
		Span:     span,
		Context:  context,
		Value:    display,
		Gold:     claim.Gold{Query: goldSQL, Correct: correct},
	}, nil
}

func (g *generator) drawKind() nl.Kind {
	total := 0
	for _, w := range g.cfg.KindWeights {
		total += w
	}
	n := g.rng.Intn(total)
	for k := nl.KindLookup; k <= nl.KindMode; k++ {
		n -= g.cfg.KindWeights[k]
		if n < 0 {
			return k
		}
	}
	return nl.KindLookup
}

// drawSpec materializes a spec of the given kind over the table, choosing
// hazards. It returns the spec plus the rendering overrides (column phrase,
// entity display) and an optional context hint sentence.
func (g *generator) drawSpec(kind nl.Kind, db *sqldb.Database, ts tableSpec) (spec *nl.Spec, colPhrase, entityDisplay, hint string, err error) {
	tab := db.Table(ts.name)
	if tab == nil || len(tab.Rows) == 0 {
		return nil, "", "", "", fmt.Errorf("data: empty table %q", ts.name)
	}
	noun := ts.noun
	spec = &nl.Spec{Kind: kind, Noun: noun}

	pickMeasure := func() measureSpec {
		return ts.measures[g.rng.Intn(len(ts.measures))]
	}
	entityIdx := tab.ColumnIndex(ts.entity)
	pickEntityVal := func() string {
		row := tab.Rows[g.rng.Intn(len(tab.Rows))]
		return row[entityIdx].Text()
	}

	switch kind {
	case nl.KindLookup:
		m := pickMeasure()
		spec.Column = m.name
		spec.EntityCol = ts.entity
		spec.EntityVal = pickEntityVal()
	case nl.KindCountAll:
		spec.EntityCol = ts.entity
	case nl.KindCount, nl.KindPercent:
		m, val, isText, e := g.drawFilter(tab, ts)
		if e != nil {
			return nil, "", "", "", e
		}
		spec.FilterCol = m
		spec.FilterVal = val
		spec.FilterIsText = isText
		if kind == nl.KindPercent {
			spec.EntityCol = ts.entity
		}
	case nl.KindSum, nl.KindAvg:
		m := pickMeasure()
		spec.Column = m.name
		if g.rng.Float64() < 0.3 {
			fc, val, isText, e := g.drawFilter(tab, ts)
			if e == nil && fc != m.name {
				spec.FilterCol = fc
				spec.FilterVal = val
				spec.FilterIsText = isText
			}
		}
	case nl.KindMin, nl.KindMax, nl.KindDiff:
		m := pickMeasure()
		spec.Column = m.name
	case nl.KindArgMax, nl.KindArgMin:
		m := pickMeasure()
		spec.Column = m.name
		spec.EntityCol = ts.entity
	case nl.KindMode:
		// The most-common value of a categorical (non-entity) text column.
		if len(ts.extraTex) == 0 {
			return nil, "", "", "", fmt.Errorf("data: no categorical column in %q for Mode", ts.name)
		}
		spec.Column = ts.extraTex[g.rng.Intn(len(ts.extraTex))].name
	default:
		return nil, "", "", "", fmt.Errorf("data: unsupported kind %v", kind)
	}

	// Hazard: unit-converted phrasing.
	if spec.Column != "" && g.rng.Float64() < g.cfg.UnitConvertRate {
		if unit, factor, ok := g.lex.ConvertedUnitFor(spec.Column); ok {
			base := g.lex.ColumnUnit(spec.Column)
			full := g.lex.ColumnPhrase(spec.Column)
			colPhrase = strings.Replace(full, base, unit, 1)
			spec.ConvFactor = factor
		}
	}
	// Hazard: underspecified column phrase (only when not unit-converted).
	if colPhrase == "" && spec.Column != "" && g.rng.Float64() < g.cfg.ShortPhraseRate {
		if short := g.lex.ShortPhrase(spec.Column); short != "" {
			colPhrase = short
			hint = fmt.Sprintf("All figures refer to %s.", g.lex.ColumnPhrase(spec.Column))
		}
	}
	// Hazard: entity alias.
	if spec.EntityVal != "" && g.rng.Float64() < g.cfg.AliasRate {
		if aliases := g.lex.AliasesFor(spec.EntityVal); len(aliases) > 0 {
			entityDisplay = aliases[g.rng.Intn(len(aliases))]
		}
	}
	return spec, colPhrase, entityDisplay, hint, nil
}

// drawFilter picks an equality filter over a small-cardinality integer
// measure column, using a value that actually occurs.
func (g *generator) drawFilter(tab *sqldb.Table, ts tableSpec) (col, val string, isText bool, err error) {
	var candidates []measureSpec
	for _, m := range ts.measures {
		if m.integer && m.hi-m.lo <= 110 {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) == 0 {
		return "", "", false, fmt.Errorf("data: no filterable column in %q", ts.name)
	}
	m := candidates[g.rng.Intn(len(candidates))]
	idx := tab.ColumnIndex(m.name)
	row := tab.Rows[g.rng.Intn(len(tab.Rows))]
	return m.name, row[idx].String(), false, nil
}

// displayValue renders the claim value: the gold value for correct claims, a
// perturbed value for incorrect ones. Perturbations stay (mostly) within the
// same order of magnitude, matching the anti-knowledge-base observation the
// paper cites: wrong numbers in text tend to be close to the truth.
func (g *generator) displayValue(gold sqldb.Value, correct bool, db *sqldb.Database, spec *nl.Spec) (string, error) {
	if gold.Kind() == sqldb.KindText {
		if correct {
			return gold.Text(), nil
		}
		// Draw a wrong value from the column the gold value came from: the
		// entity column for Arg kinds, the categorical column for Mode.
		col := spec.EntityCol
		if col == "" {
			col = spec.Column
		}
		tables := nl.SchemaFromDatabase(db).TablesWithColumn(col)
		if len(tables) == 0 {
			return "", fmt.Errorf("data: no table for column %q", col)
		}
		uniq, err := db.Table(tables[0]).UniqueValues(col)
		if err != nil {
			return "", err
		}
		for tries := 0; tries < 20; tries++ {
			v := uniq[g.rng.Intn(len(uniq))]
			if v.Text() != gold.Text() {
				return v.Text(), nil
			}
		}
		return "", fmt.Errorf("data: cannot draw a wrong textual value")
	}

	f, ok := gold.AsFloat()
	if !ok {
		return "", fmt.Errorf("data: gold value %q is neither numeric nor text", gold.String())
	}
	prec := 0
	if f != float64(int64(f)) {
		prec = 1 + g.rng.Intn(2)
	}
	if correct {
		return textutil.FormatNumber(textutil.RoundTo(f, prec)), nil
	}
	for tries := 0; tries < 50; tries++ {
		factor := 1.15 + g.rng.Float64()*1.3
		if g.rng.Intn(2) == 0 {
			factor = 1 / factor
		}
		p := f * factor
		if f == 0 {
			p = float64(1 + g.rng.Intn(5))
		}
		display := textutil.FormatNumber(textutil.RoundTo(p, prec))
		if !textutil.RoundMatches(display, f) {
			return display, nil
		}
	}
	return "", fmt.Errorf("data: cannot perturb value %v", f)
}
