package route

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/agent"
	"repro/internal/embed"
	"repro/internal/nl"
	"repro/internal/sqldb"
)

// Scoring constants. Cosine similarity over short phrases is noisy, so two
// exact-containment signals dominate it: a surface phrase of the table
// appearing verbatim in the sentence, and a cell value of the table (an
// entity name above all) appearing verbatim in the sentence.
const (
	// phraseBonus is added when a normalized surface phrase (>= 4 chars) is
	// a substring of the normalized sentence.
	phraseBonus = 0.35
	// entityValueBonus is added when a value of the table's entity column
	// occurs in the sentence on word boundaries.
	entityValueBonus = 0.5
	// textValueBonus is the weaker form for values of non-entity text
	// columns (e.g. a director name in a movies table).
	textValueBonus = 0.25
	// maxValuesPerColumn bounds how many distinct cell values one column
	// contributes to the containment index.
	maxValuesPerColumn = 256
)

// surface is one lexical handle on a table: its name, its lexicon noun, or a
// column phrase — pre-embedded so scoring a sentence is one cosine per
// surface.
type surface struct {
	text string
	norm string
	vec  embed.Vector
}

// Entry is one routable target: a (database, table) pair with its
// pre-computed scoring surfaces.
type Entry struct {
	DB    *sqldb.Database
	Table string

	name       string
	surfaces   []surface
	entityVals []string // normalized entity-column values
	textVals   []string // normalized values of other text columns
}

// Name returns the canonical entry label "db/table" used in gold routing
// labels, trace spans, and unit document IDs.
func (e *Entry) Name() string { return e.name }

// Catalog indexes every registered (database, table) pair for routing. Build
// it once with NewCatalog; scoring never mutates it, so a Catalog is safe
// for concurrent use.
type Catalog struct {
	entries []*Entry
	byName  map[string]*Entry
}

// NewCatalog indexes the tables of the given databases, in the given
// database order and each database's own table order (deterministic for a
// deterministic build sequence). Databases registered later win name
// collisions on the "db/table" label, matching sqldb's replace semantics.
func NewCatalog(dbs ...*sqldb.Database) *Catalog {
	c := &Catalog{byName: make(map[string]*Entry)}
	lex := nl.DefaultLexicon()
	for _, db := range dbs {
		if db == nil {
			continue
		}
		schema := nl.SchemaFromDatabase(db)
		for _, t := range db.Tables() {
			e := buildEntry(db, t, schema.Table(t.Name), lex)
			if prev, ok := c.byName[e.name]; ok {
				*prev = *e
				continue
			}
			c.entries = append(c.entries, e)
			c.byName[e.name] = e
		}
	}
	return c
}

// buildEntry computes one table's surfaces and containment values.
func buildEntry(db *sqldb.Database, t *sqldb.Table, st *nl.SchemaTable, lex *nl.Lexicon) *Entry {
	e := &Entry{DB: db, Table: t.Name, name: db.Name + "/" + t.Name}
	seen := make(map[string]bool)
	add := func(text string) {
		norm := embed.Normalize(text)
		if norm == "" || seen[norm] {
			return
		}
		seen[norm] = true
		e.surfaces = append(e.surfaces, surface{text: text, norm: norm, vec: embed.Embed(text)})
	}
	add(strings.ReplaceAll(t.Name, "_", " "))
	add(lex.TableNoun(t.Name))
	for _, col := range t.Columns {
		add(strings.ReplaceAll(col.Name, "_", " "))
		add(lex.ColumnPhrase(col.Name))
		if short := lex.ShortPhrase(col.Name); short != "" {
			add(short)
		}
	}

	entityCol := ""
	if st != nil {
		entityCol = nl.EntityColumnOf(st)
	}
	for i, col := range t.Columns {
		vals := collectTextValues(t, i)
		if strings.EqualFold(col.Name, entityCol) {
			e.entityVals = vals
		} else {
			e.textVals = append(e.textVals, vals...)
		}
	}
	return e
}

// collectTextValues gathers the distinct normalized text values of column i,
// in first-appearance order, capped at maxValuesPerColumn.
func collectTextValues(t *sqldb.Table, i int) []string {
	var out []string
	seen := make(map[string]bool)
	for r := 0; r < t.NumRows(); r++ {
		v := t.Cell(r, i)
		if v.Kind() != sqldb.KindText {
			continue
		}
		norm := embed.Normalize(v.Text())
		if len(norm) < 3 || seen[norm] {
			continue
		}
		seen[norm] = true
		out = append(out, norm)
		if len(out) >= maxValuesPerColumn {
			break
		}
	}
	return out
}

// Len returns the number of routable entries.
func (c *Catalog) Len() int { return len(c.entries) }

// Entries returns the catalog's entries in registration order.
func (c *Catalog) Entries() []*Entry { return c.entries }

// Entry returns the entry labeled "db/table", or nil.
func (c *Catalog) Entry(name string) *Entry { return c.byName[name] }

// Score is one entry's relevance to a sentence.
type Score struct {
	Entry *Entry
	Value float64
}

// Score scores every entry against the sentence and returns the full
// ranking, sorted by (score desc, name asc) — a total, deterministic order.
func (c *Catalog) Score(sentence string) []Score {
	if len(c.entries) == 0 {
		return nil
	}
	vec := embed.Embed(sentence)
	norm := " " + embed.Normalize(sentence) + " "
	out := make([]Score, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, Score{Entry: e, Value: scoreEntry(e, vec, norm)})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Entry.name < out[j].Entry.name
	})
	return out
}

// scoreEntry computes max-over-surfaces cosine with containment bonuses.
// padded is the normalized sentence wrapped in single spaces so value
// containment matches on word boundaries only.
func scoreEntry(e *Entry, vec embed.Vector, padded string) float64 {
	best := 0.0
	for _, s := range e.surfaces {
		cos := embed.Cosine(vec, s.vec)
		if len(s.norm) >= 4 && strings.Contains(padded, s.norm) {
			cos += phraseBonus
		}
		if cos > best {
			best = cos
		}
	}
	bonus := 0.0
	for _, v := range e.entityVals {
		if strings.Contains(padded, " "+v+" ") {
			bonus = entityValueBonus
			break
		}
	}
	if bonus == 0 {
		for _, v := range e.textVals {
			if strings.Contains(padded, " "+v+" ") {
				bonus = textValueBonus
				break
			}
		}
	}
	return best + bonus
}

// Bind scores a sub-claim, keeps the DefaultTopK best candidates, and lets
// the routing stage pick one with seeded tie-breaking. The (docID,
// claimIdx, subIdx) triple is the sub-claim's routing identity: any planner
// — library, replica, coordinator — that uses the same seed binds it
// identically. It returns the chosen entry, its score, and whether the pick
// broke a tie; the entry is nil only for an empty catalog.
func (c *Catalog) Bind(seed int64, docID string, claimIdx, subIdx int, sub SubClaim) (*Entry, float64, bool) {
	scores := c.Score(sub.Sentence)
	if len(scores) == 0 {
		return nil, 0, false
	}
	cand := scores[:min(DefaultTopK, len(scores))]
	names := make([]string, len(cand))
	vals := make([]float64, len(cand))
	for i, s := range cand {
		names[i] = s.Entry.name
		vals[i] = s.Value
	}
	idx, tied := agent.RoutePick(seed, bindKey(docID, claimIdx, subIdx), names, vals)
	return cand[idx].Entry, cand[idx].Value, tied
}

// bindKey is the routing identity fed into the seeded tie-break.
func bindKey(docID string, claimIdx, subIdx int) string {
	return fmt.Sprintf("%s\x00%d\x00%d", docID, claimIdx, subIdx)
}
