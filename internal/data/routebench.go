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

// RouteBenchCorpus is the synthetic multi-database compound-claim benchmark
// of DESIGN.md §16: three databases built from disjoint JoinBench/AggChecker
// table specs, documents homed on one database each, and compound claims
// whose conjuncts span two or three databases. Gold carries the expected
// routing — claim ID to the "db/table" label of each conjunct in order — so
// routebench can measure routing accuracy against it.
type RouteBenchCorpus struct {
	// Databases is the routing catalog in registration order.
	Databases []*sqldb.Database
	// Docs carries the claims; each document's Data is its home database
	// (the database a non-routing verifier would check everything against).
	Docs []*claim.Document
	// Gold maps compound-claim IDs to the expected entry per sub-claim.
	Gold map[string][]string
	// SubClaims is the total conjunct count over all compound claims.
	SubClaims int
	// Simple counts the non-compound claims (the degenerate surface).
	Simple int
}

// routeBenchDBs lays out which corpus tables live in which database. The
// tables are chosen so no column name or lexicon phrase is shared between
// two databases' tables — routing mistakes then reflect the router, not an
// ambiguous catalog.
var routeBenchDBs = []struct {
	name   string
	tables []string
}{
	{"fivethirtyeight", []string{"airlines", "drinks"}},
	{"stackoverflow", []string{"so_survey"}},
	{"wikipedia", []string{"f1", "cities", "movies"}},
}

// routeBenchIncorrectRate is the fraction of sub-claims whose value is
// perturbed, exercising both verdict directions through recombination.
const routeBenchIncorrectRate = 0.3

// RouteBench generates the corpus: 12 documents, each with 2 simple claims
// drawn from its home database and 3 compound claims spanning 2–3
// databases.
func RouteBench(seed int64) (*RouteBenchCorpus, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x7031e))
	corpus := &RouteBenchCorpus{Gold: make(map[string][]string)}

	var targets []routeTarget
	for _, d := range routeBenchDBs {
		db, err := BuildDatabase(d.name, rng, 14, d.tables...)
		if err != nil {
			return nil, err
		}
		corpus.Databases = append(corpus.Databases, db)
		schema := nl.SchemaFromDatabase(db)
		for _, tn := range d.tables {
			targets = append(targets, routeTarget{db: db, schema: schema, spec: corpusTables[tn], entry: db.Name + "/" + tn})
		}
	}
	lex := nl.DefaultLexicon()

	// draw renders one atomic claim against a target table.
	draw := func(t routeTarget) (sentence, value, goldSQL string, correct bool, err error) {
		for tries := 0; tries < 40; tries++ {
			s, v, q, c, e := drawRouteSub(rng, lex, t.db, t.schema, t.spec)
			if e == nil {
				return s, v, q, c, nil
			}
			err = e
		}
		return "", "", "", false, fmt.Errorf("data: routebench cannot draw a claim for %s: %w", t.entry, err)
	}

	const docCount = 12
	for d := 0; d < docCount; d++ {
		home := targets[d%len(targets)]
		doc := &claim.Document{
			ID:     fmt.Sprintf("routedoc-%02d", d+1),
			Title:  fmt.Sprintf("A cross-database summary homed on %s", home.db.Name),
			Domain: "RouteBench",
			Data:   home.db,
		}
		// Two simple claims against the home database: the degenerate
		// surface routing must leave untouched.
		for i := 0; i < 2; i++ {
			sentence, value, goldSQL, correct, err := draw(home)
			if err != nil {
				return nil, err
			}
			c, err := claim.New(fmt.Sprintf("%s-s%d", doc.ID, i+1), sentence, value, "")
			if err != nil {
				return nil, err
			}
			c.Gold = claim.Gold{Query: goldSQL, Correct: correct}
			doc.Claims = append(doc.Claims, c)
			corpus.Simple++
		}
		// Three compound claims spanning 2–3 distinct tables, at least two
		// databases each.
		for i := 0; i < 3; i++ {
			n := 2 + rng.Intn(2)
			picked := pickCrossDB(rng, targets, n)
			var sentences, queries, gold []string
			value := ""
			correct := true
			for _, t := range picked {
				s, v, q, c, err := draw(t)
				if err != nil {
					return nil, err
				}
				sentences = append(sentences, s)
				queries = append(queries, q)
				gold = append(gold, t.entry)
				correct = correct && c
				if value == "" {
					value = v
				}
			}
			compound := joinConjuncts(sentences)
			id := fmt.Sprintf("%s-x%d", doc.ID, i+1)
			c, err := claim.New(id, compound, value, "")
			if err != nil {
				return nil, fmt.Errorf("data: routebench compound claim %s: %w", id, err)
			}
			c.Gold = claim.Gold{Query: strings.Join(queries, "; "), Correct: correct}
			doc.Claims = append(doc.Claims, c)
			corpus.Gold[id] = gold
			corpus.SubClaims += len(gold)
		}
		corpus.Docs = append(corpus.Docs, doc)
	}
	return corpus, nil
}

// routeTarget is one routable (database, table) pair of the corpus.
type routeTarget struct {
	db     *sqldb.Database
	schema *nl.Schema
	spec   tableSpec
	entry  string
}

// pickCrossDB draws n distinct targets covering at least two databases.
func pickCrossDB(rng *rand.Rand, targets []routeTarget, n int) []routeTarget {
	for {
		perm := rng.Perm(len(targets))[:n]
		picked := make([]routeTarget, 0, n)
		dbs := make(map[string]bool)
		for _, idx := range perm {
			picked = append(picked, targets[idx])
			dbs[targets[idx].db.Name] = true
		}
		if len(dbs) >= 2 {
			return picked
		}
	}
}

// joinConjuncts joins rendered sentences with the ", and " connective the
// decomposer splits on, preserving each conjunct byte-for-byte: stripping
// the non-final periods and re-appending the final one round-trips through
// route.Decompose exactly.
func joinConjuncts(sentences []string) string {
	parts := make([]string, len(sentences))
	for i, s := range sentences {
		parts[i] = strings.TrimSuffix(s, ".")
	}
	return strings.Join(parts, ", and ") + "."
}

// routeSubKinds are the claim kinds compound conjuncts draw from: every one
// renders the routed table's column phrase (and, for Lookup, an entity
// value) into the sentence, which is the lexical signal routing scores on.
var routeSubKinds = []nl.Kind{nl.KindLookup, nl.KindLookup, nl.KindSum, nl.KindAvg, nl.KindMin, nl.KindMax}

// drawRouteSub renders one atomic claim against a table: spec, gold SQL,
// gold value, a possibly-perturbed display value, and the sentence. It is a
// hazard-free cousin of the generator in gen.go — routing quality, not
// translation hazards, is what this corpus isolates.
func drawRouteSub(rng *rand.Rand, lex *nl.Lexicon, db *sqldb.Database, schema *nl.Schema, ts tableSpec) (sentence, value, goldSQL string, correct bool, err error) {
	kind := routeSubKinds[rng.Intn(len(routeSubKinds))]
	tab := db.Table(ts.name)
	if tab == nil || len(tab.Rows) == 0 {
		return "", "", "", false, fmt.Errorf("data: empty table %q", ts.name)
	}
	m := ts.measures[rng.Intn(len(ts.measures))]
	spec := &nl.Spec{Kind: kind, Noun: ts.noun, Column: m.name}
	if kind == nl.KindLookup {
		spec.EntityCol = ts.entity
		row := tab.Rows[rng.Intn(len(tab.Rows))]
		spec.EntityVal = row[tab.ColumnIndex(ts.entity)].Text()
	}
	goldSQL, err = nl.BuildSQL(schema, spec)
	if err != nil {
		return "", "", "", false, err
	}
	goldVal, err := sqldb.QueryScalar(db, goldSQL)
	if err != nil || goldVal.IsNull() {
		return "", "", "", false, fmt.Errorf("data: gold query unusable: %w", err)
	}
	f, ok := goldVal.AsFloat()
	if !ok {
		return "", "", "", false, fmt.Errorf("data: gold value %q not numeric", goldVal.String())
	}
	prec := 0
	if f != float64(int64(f)) {
		prec = 1 + rng.Intn(2)
	}
	correct = rng.Float64() >= routeBenchIncorrectRate
	if correct {
		value = textutil.FormatNumber(textutil.RoundTo(f, prec))
	} else {
		value, err = perturbNumber(rng, f, prec)
		if err != nil {
			return "", "", "", false, err
		}
	}
	sentence = nl.RenderSentence(spec, lex, nl.RenderOptions{
		Value: value,
		Verb:  nl.ClaimVerbs[rng.Intn(len(nl.ClaimVerbs))],
	})
	if _, ok := textutil.FindValueSpan(sentence, value); !ok {
		return "", "", "", false, fmt.Errorf("data: value %q not locatable in %q", value, sentence)
	}
	for _, conn := range []string{", and ", ", while ", ", whereas "} {
		if strings.Contains(sentence, conn) {
			return "", "", "", false, fmt.Errorf("data: conjunct %q contains connective", sentence)
		}
	}
	return sentence, value, goldSQL, correct, nil
}

// perturbNumber draws a wrong-but-plausible display value (same recipe as
// gen.go's displayValue).
func perturbNumber(rng *rand.Rand, f float64, prec int) (string, error) {
	for tries := 0; tries < 50; tries++ {
		factor := 1.15 + rng.Float64()*1.3
		if rng.Intn(2) == 0 {
			factor = 1 / factor
		}
		p := f * factor
		if f == 0 {
			p = float64(1 + rng.Intn(5))
		}
		display := textutil.FormatNumber(textutil.RoundTo(p, prec))
		if !textutil.RoundMatches(display, f) {
			return display, nil
		}
	}
	return "", fmt.Errorf("data: cannot perturb value %v", f)
}
