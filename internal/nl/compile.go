package nl

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/embed"
)

// A claim changes from call to call; the lexicon and the schema it is parsed
// against do not. This file holds what the parser derives from the static
// side, built once and shared read-only: a column's verbalisations as
// embedded vectors (per lexicon), the Schema of a prompt's CREATE TABLE
// block (per distinct block), and a schema's resolution under a lexicon —
// its distinct columns, its tables' embedded nouns and names, and the
// phrases and nouns already resolved against them (per schema and lexicon).

// compiledColumn is everything resolveColumn needs to know about one column
// name under one lexicon.
type compiledColumn struct {
	// vecs are the column's verbalisations, embedded, in the order they are
	// tried (canonical phrase, header, short phrase, unit-converted
	// phrases); on equal scores the first wins. factors[i] is vecs[i]'s
	// unit-conversion factor, 0 for a plain verbalisation. Two slices, not
	// one of pairs, and vecs sized exactly: n vectors fill an allocation
	// size class, where pairs or append's doubling waste kilobytes a column.
	vecs    []embed.Vector
	factors []float64
	// phraseToks are the normalized tokens of the canonical phrase, each
	// padded with a space either side, the way contextBoost searches the
	// context for it.
	phraseToks []string
}

func compileColumn(lex *Lexicon, lower string) *compiledColumn {
	entry := lex.Columns[lower]
	header := strings.ReplaceAll(lower, "_", " ")
	full := entry.Phrase
	if full == "" {
		full = header // Lexicon.ColumnPhrase's fallback
	}
	texts := []string{full, header}
	factors := []float64{0, 0}
	if entry.Short != "" {
		texts, factors = append(texts, entry.Short), append(factors, 0)
	}
	if entry.Unit != "" && strings.Contains(full, entry.Unit) {
		for _, u := range lex.Units {
			if u.From == entry.Unit {
				texts = append(texts, strings.Replace(full, entry.Unit, u.To, 1))
				factors = append(factors, u.Factor)
			}
		}
	}
	cc := &compiledColumn{vecs: make([]embed.Vector, len(texts)), factors: factors}
	for i, text := range texts {
		cc.vecs[i] = embed.Embed(text)
	}
	for _, tok := range strings.Fields(embed.Normalize(full)) {
		cc.phraseToks = append(cc.phraseToks, " "+tok+" ")
	}
	return cc
}

// score returns the best similarity between the phrase and any
// verbalisation of the column, plus the conversion factor if the best match
// was a unit-converted variant.
func (cc *compiledColumn) score(phrase *embed.Sparse) (best, factor float64) {
	for i := range cc.vecs {
		if s := phrase.Cosine(&cc.vecs[i]); s > best {
			best, factor = s, cc.factors[i]
		}
	}
	return best, factor
}

// contextBoost rewards a candidate column whose full-phrase tokens beyond
// the claim's phrase occur in the context, e.g. context mentioning "between
// 2000 and 2014" boosts fatal_accidents_00_14 over fatal_accidents_85_99.
// have lists the claim phrase's own normalized tokens.
func (cc *compiledColumn) contextBoost(have []string, ctxNorm string) float64 {
	extra, found := 0, 0
next:
	for _, padded := range cc.phraseToks {
		tok := padded[1 : len(padded)-1]
		for _, h := range have {
			if h == tok {
				continue next
			}
		}
		extra++
		if strings.Contains(ctxNorm, padded) {
			found++
		}
	}
	if extra == 0 || found == 0 {
		return 0
	}
	return 0.2 * float64(found) / float64(extra)
}

// columnCacheCap bounds a lexicon's compiled columns. Column names arrive
// from ingested headers, so the set is open-ended; a working catalog has
// tens to a few hundred. At the cap the cache is dropped whole and refills
// from traffic, like sqldb's plan cache.
const columnCacheCap = 1024

// columnCache maps lower-cased column names to their compiled form. Readers
// take one atomic load per parse and then plain map reads; a writer copies
// the map, which a miss can afford (it has just embedded several phrases)
// and a hit never sees.
type columnCache struct {
	mu  sync.Mutex // serialises writers
	cur atomic.Pointer[map[string]*compiledColumn]
}

func (c *columnCache) snapshot() map[string]*compiledColumn {
	if m := c.cur.Load(); m != nil {
		return *m
	}
	return nil
}

// add compiles and publishes a column another goroutine may have added in
// the meantime; every caller gets the published one. The key is a copy: a
// lower-case name is often a substring of the prompt it was parsed from,
// which the cache would otherwise keep alive.
func (c *columnCache) add(lex *Lexicon, lower string) *compiledColumn {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.snapshot()
	if cc := old[lower]; cc != nil {
		return cc
	}
	lower = strings.Clone(lower)
	cc := compileColumn(lex, lower)
	next := make(map[string]*compiledColumn, len(old)+1)
	if len(old) < columnCacheCap {
		for k, v := range old {
			next[k] = v
		}
	}
	next[lower] = cc
	c.cur.Store(&next)
	return cc
}

// schemaMemoCap bounds the memo of parsed CREATE TABLE blocks. A deployment
// has one block per database (and per prompt template that renders it
// differently); dataset churn adds more. Flushed whole at the cap.
const schemaMemoCap = 256

var schemaMemo struct {
	sync.RWMutex
	m map[string]*Schema
}

// SchemaOfPrompt is ParseSchemaText(prompt) for readers that only read the
// result: prompts over one database repeat the same CREATE TABLE block, so
// the Schema is parsed once per distinct block and shared. The returned
// Schema may be in use by other goroutines and must not be modified. Text
// whose CREATE TABLE lines are not one contiguous block is parsed afresh.
// A memoised Schema is parsed from a copy of its block, so that neither its
// key nor its names keep the first prompt that carried the block alive.
func SchemaOfPrompt(prompt string) *Schema {
	block, ok := createTableBlock(prompt)
	if !ok {
		return ParseSchemaText(prompt)
	}
	schemaMemo.RLock()
	s := schemaMemo.m[block]
	schemaMemo.RUnlock()
	if s != nil {
		return s
	}
	block = strings.Clone(block)
	s = ParseSchemaText(block)
	schemaMemo.Lock()
	if prev := schemaMemo.m[block]; prev != nil {
		s = prev
	} else {
		if schemaMemo.m == nil || len(schemaMemo.m) >= schemaMemoCap {
			schemaMemo.m = make(map[string]*Schema)
		}
		schemaMemo.m[block] = s
	}
	schemaMemo.Unlock()
	return s
}

const createTable = "CREATE TABLE"

// createTableBlock finds the lines of text ParseSchemaText would read — those
// that start, after trimming, with CREATE TABLE in any case — without
// allocating. It returns the span from the first to the last of them when
// nothing but blank lines lies between; ParseSchemaText(block) then equals
// ParseSchemaText(text), because the lines outside the block are ones it
// skips. ok is false when another line sits between two CREATE TABLE lines
// (the key would carry per-claim text) and when there is no such line.
func createTableBlock(text string) (block string, ok bool) {
	start, end := -1, -1
	gap := false // a non-CREATE TABLE, non-blank line since the last match
	for pos := 0; pos <= len(text); {
		lineEnd, next := len(text), len(text)+1
		if eol := strings.IndexByte(text[pos:], '\n'); eol >= 0 {
			lineEnd, next = pos+eol, pos+eol+1
		}
		line := strings.TrimSpace(text[pos:lineEnd])
		switch {
		case hasCreateTablePrefix(line):
			if start < 0 {
				start = pos
			} else if gap {
				return "", false
			}
			end = lineEnd
		case start >= 0 && line != "":
			gap = true
		}
		pos = next
	}
	if start < 0 {
		return "", false
	}
	return text[start:end], true
}

// hasCreateTablePrefix is strings.HasPrefix(strings.ToUpper(line),
// "CREATE TABLE") without the upper-cased copy. Comparing ASCII-folded bytes
// is the same test because no rune outside ASCII upper-cases to one of the
// prefix's letters: only ı and ſ upper-case into ASCII at all, to I and S
// (TestNoFoldedCreateTable walks the Unicode tables to keep that true).
func hasCreateTablePrefix(line string) bool {
	if len(line) < len(createTable) {
		return false
	}
	for i := 0; i < len(createTable); i++ {
		c := line[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != createTable[i] {
			return false
		}
	}
	return true
}

// phraseCap and nounCap bound the phrases and nouns one resolver remembers.
// Each memo is flushed whole at its cap and refills from traffic. On the
// repository benchmark's four workloads a schema meets at most 41 distinct
// phrases and 7 distinct nouns, and 99 % or more of lookups hit
// (EXPERIMENTS.md, "The envelope, part one"); the caps leave over ten times
// that room before a flush, while bounding what the schemas SchemaOfPrompt
// keeps (at most schemaMemoCap of them) can hold.
const (
	phraseCap = 512
	nounCap   = 64
)

// schemaResolver is a schema's column and table resolution under one
// lexicon. Everything but the two memos is fixed when it is built; the memos
// hold what phrase and table compute, which depends on nothing else.
type schemaResolver struct {
	lex *Lexicon
	// columns are the schema's distinct lower-case column names in the order
	// resolution meets them, each under its first spelling.
	columns []resolverColumn
	// nounVecs[i] and nameVecs[i] embed table i's plural noun and name.
	nounVecs, nameVecs []embed.Vector
	// fallback is the table a noun matching none resolves to: the first
	// with an entity column, else the first (-1: no tables).
	fallback int

	mu      sync.RWMutex
	phrases map[string]*phraseCands
	nouns   map[string]int
}

type resolverColumn struct {
	name string
	cc   *compiledColumn
}

// phraseCands is one phrase resolved against a schema before any context.
type phraseCands struct {
	// ranked are the columns scoring over 0.3, ranked: the answer to a
	// parse without context, shared by every such parse. columns[i] is
	// ranked[i]'s compiled column, for the context boost.
	ranked  []Candidate
	columns []*compiledColumn
	// have lists the phrase's normalized tokens.
	have []string
}

// resolverOf returns the resolver of schema under lex, building it on first
// use. It lives on the schema, so a Schema shared by every prompt over its
// block (SchemaOfPrompt) shares one, and it goes when the schema does.
func resolverOf(schema *Schema, lex *Lexicon) *schemaResolver {
	for {
		old := schema.resolvers.Load()
		var have []*schemaResolver
		if old != nil {
			have = *old
		}
		for _, sr := range have {
			if sr.lex == lex {
				return sr
			}
		}
		sr := newSchemaResolver(schema, lex)
		next := append(have[:len(have):len(have)], sr)
		if schema.resolvers.CompareAndSwap(old, &next) {
			return sr
		}
	}
}

func newSchemaResolver(schema *Schema, lex *Lexicon) *schemaResolver {
	sr := &schemaResolver{
		lex:      lex,
		nounVecs: make([]embed.Vector, len(schema.Tables)),
		nameVecs: make([]embed.Vector, len(schema.Tables)),
		fallback: -1,
		phrases:  make(map[string]*phraseCands),
		nouns:    make(map[string]int),
	}
	compiled := lex.compiled.snapshot()
	seen := make(map[string]bool)
	for ti := range schema.Tables {
		t := &schema.Tables[ti]
		sr.nounVecs[ti] = embed.Embed(lex.TableNoun(t.Name))
		sr.nameVecs[ti] = embed.Embed(t.Name)
		for i := range t.Columns {
			c := &t.Columns[i]
			lower := c.lowerName()
			if seen[lower] {
				continue
			}
			seen[lower] = true
			cc := compiled[lower]
			if cc == nil {
				cc = lex.compiled.add(lex, lower)
			}
			sr.columns = append(sr.columns, resolverColumn{name: c.Name, cc: cc})
		}
	}
	for i := range schema.Tables {
		if EntityColumnOf(&schema.Tables[i]) != "" {
			sr.fallback = i
			break
		}
	}
	if sr.fallback < 0 && len(schema.Tables) > 0 {
		sr.fallback = 0
	}
	return sr
}

// phrase returns the phrase's resolution, computing it on a miss. The memo
// key is a copy: a phrase is a substring of the prompt it was parsed from.
func (sr *schemaResolver) phrase(phrase string) *phraseCands {
	sr.mu.RLock()
	pc := sr.phrases[phrase]
	sr.mu.RUnlock()
	if pc != nil {
		return pc
	}
	pc = sr.resolvePhrase(phrase)
	sr.mu.Lock()
	if len(sr.phrases) >= phraseCap {
		sr.phrases = make(map[string]*phraseCands)
	}
	sr.phrases[strings.Clone(phrase)] = pc
	sr.mu.Unlock()
	return pc
}

func (sr *schemaResolver) resolvePhrase(phrase string) *phraseCands {
	vec := embed.EmbedSparse(phrase)
	pc := &phraseCands{have: strings.Fields(embed.Normalize(phrase))}
	for _, col := range sr.columns {
		best, factor := col.cc.score(&vec)
		if best <= 0.3 {
			continue
		}
		pc.ranked = append(pc.ranked, Candidate{Column: col.name, Score: best, ConvFactor: factor})
		pc.columns = append(pc.columns, col.cc)
	}
	rank(pc.ranked, pc.columns)
	pc.ranked = pc.ranked[:len(pc.ranked):len(pc.ranked)] // an append by a caller copies
	return pc
}

// table maps a plural noun to the index of the best-matching table, or -1
// when the schema has none.
func (sr *schemaResolver) table(noun string) int {
	sr.mu.RLock()
	i, ok := sr.nouns[noun]
	sr.mu.RUnlock()
	if ok {
		return i
	}
	i = sr.resolveTable(noun)
	sr.mu.Lock()
	if len(sr.nouns) >= nounCap {
		sr.nouns = make(map[string]int)
	}
	sr.nouns[strings.Clone(noun)] = i
	sr.mu.Unlock()
	return i
}

func (sr *schemaResolver) resolveTable(noun string) int {
	nounVec := embed.EmbedSparse(noun)
	best, bestScore := -1, 0.0
	for i := range sr.nounVecs {
		score := nounVec.Cosine(&sr.nounVecs[i])
		if s2 := nounVec.Cosine(&sr.nameVecs[i]); s2 > score {
			score = s2
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if bestScore <= 0.2 {
		// Fall back to the first table with an entity column, the way a
		// model defaults to "the main table".
		return sr.fallback
	}
	return best
}
