package route

import (
	"testing"

	"repro/internal/sqldb"
)

// twinDBs builds two databases whose tables are structurally identical —
// every surface scores the same, so every sentence produces a tie the seeded
// pick must break deterministically.
func twinDBs() (*sqldb.Database, *sqldb.Database) {
	mk := func(name string) *sqldb.Database {
		db := sqldb.NewDatabase(name)
		t := sqldb.NewTable("widgets", "widget", "mass")
		t.MustAppendRow(sqldb.Text("anvil"), sqldb.Int(10))
		t.MustAppendRow(sqldb.Text("mallet"), sqldb.Int(2))
		db.AddTable(t)
		return db
	}
	return mk("alpha"), mk("beta")
}

// distinctDBs builds two databases with disjoint vocabulary for
// unambiguous-routing tests.
func distinctDBs() (*sqldb.Database, *sqldb.Database) {
	a := sqldb.NewDatabase("aviation")
	at := sqldb.NewTable("flights", "airline", "fatal_accidents")
	at.MustAppendRow(sqldb.Text("Aeroflot"), sqldb.Int(76))
	at.MustAppendRow(sqldb.Text("Qantas"), sqldb.Int(0))
	a.AddTable(at)

	b := sqldb.NewDatabase("cinema")
	bt := sqldb.NewTable("movies", "title", "box_office")
	bt.MustAppendRow(sqldb.Text("Heat"), sqldb.Int(187))
	bt.MustAppendRow(sqldb.Text("Arrival"), sqldb.Int(203))
	b.AddTable(bt)
	return a, b
}

func TestNewCatalogOrderAndLookup(t *testing.T) {
	a, b := distinctDBs()
	cat := NewCatalog(a, b, nil)
	if cat.Len() != 2 {
		t.Fatalf("len = %d, want 2", cat.Len())
	}
	if got := cat.Entries()[0].Name(); got != "aviation/flights" {
		t.Errorf("first entry %q", got)
	}
	if cat.Entry("cinema/movies") == nil || cat.Entry("nope/nope") != nil {
		t.Errorf("byName lookup broken")
	}
}

func TestScoreFavorsMatchingVocabulary(t *testing.T) {
	a, b := distinctDBs()
	cat := NewCatalog(a, b)
	cases := []struct {
		sentence string
		want     string
	}{
		{"The fatal accidents of Aeroflot was 76.", "aviation/flights"},
		{"The box office of Arrival was 203.", "cinema/movies"},
	}
	for _, tc := range cases {
		scores := cat.Score(tc.sentence)
		if len(scores) != 2 {
			t.Fatalf("got %d scores", len(scores))
		}
		if scores[0].Entry.Name() != tc.want {
			t.Errorf("%q routed to %s (%.3f) over %s (%.3f)",
				tc.sentence, scores[0].Entry.Name(), scores[0].Value, scores[1].Entry.Name(), scores[1].Value)
		}
		if scores[0].Value < scores[1].Value {
			t.Errorf("scores not sorted descending")
		}
	}
}

func TestScoreEntityBonusOutweighsText(t *testing.T) {
	a, b := distinctDBs()
	cat := NewCatalog(a, b)
	scores := cat.Score("Qantas was 0.")
	if scores[0].Entry.Name() != "aviation/flights" {
		t.Fatalf("entity value failed to pull the sentence home: %s", scores[0].Entry.Name())
	}
}

func TestBindDeterministicAcrossRebuilds(t *testing.T) {
	sub := SubClaim{Sentence: "The mass of anvil was 10.", Value: "10"}
	a1, b1 := twinDBs()
	a2, b2 := twinDBs()
	e1, s1, tied1 := NewCatalog(a1, b1).Bind(42, "doc-1", 0, 0, sub)
	e2, s2, tied2 := NewCatalog(a2, b2).Bind(42, "doc-1", 0, 0, sub)
	if e1 == nil || e2 == nil {
		t.Fatal("no binding")
	}
	if e1.Name() != e2.Name() || s1 != s2 || tied1 != tied2 {
		t.Fatalf("binding differs across rebuilds: %s vs %s", e1.Name(), e2.Name())
	}
	if !tied1 {
		t.Error("twin catalogs must tie")
	}
}

func TestBindTieBreakSpreadsByIdentity(t *testing.T) {
	a, b := twinDBs()
	cat := NewCatalog(a, b)
	sub := SubClaim{Sentence: "The mass of anvil was 10.", Value: "10"}
	picks := make(map[string]bool)
	for i := 0; i < 16; i++ {
		e, _, _ := cat.Bind(42, "doc-1", i, 0, sub)
		picks[e.Name()] = true
	}
	if len(picks) < 2 {
		t.Error("tie-break never varied across 16 distinct claim identities")
	}
}

func TestBindEmptyCatalog(t *testing.T) {
	e, _, _ := NewCatalog().Bind(1, "d", 0, 0, SubClaim{Sentence: "x"})
	if e != nil {
		t.Fatal("empty catalog produced a binding")
	}
}

// A catalog of fewer tables than DefaultTopK binds among all of them.
func TestBindTopKClamp(t *testing.T) {
	a, b := distinctDBs()
	cat := NewCatalog(a, b)
	sub := SubClaim{Sentence: "The box office of Heat was 187.", Value: "187"}
	if e, _, _ := cat.Bind(7, "d", 0, 0, sub); e == nil || e.Name() != "cinema/movies" {
		t.Fatalf("bound %v, want cinema/movies", e)
	}
}

// FuzzRouteScore checks scoring and binding invariants on arbitrary
// sentences against a catalog that includes tied twin tables: the full
// ranking is a deterministic total order, and Bind always returns a catalog
// entry regardless of input.
func FuzzRouteScore(f *testing.F) {
	f.Add("The mass of anvil was 10.", int64(1))
	f.Add("The fatal accidents of Aeroflot was 76.", int64(42))
	f.Add("", int64(0))
	f.Add("unroutable gibberish zzz qqq", int64(-7))
	f.Add("anvil mallet widgets flights movies", int64(9e15))
	a, b := twinDBs()
	c, d := distinctDBs()
	cat := NewCatalog(a, b, c, d)
	f.Fuzz(func(t *testing.T, sentence string, seed int64) {
		s1 := cat.Score(sentence)
		s2 := cat.Score(sentence)
		if len(s1) != cat.Len() || len(s2) != cat.Len() {
			t.Fatalf("score count %d/%d, want %d", len(s1), len(s2), cat.Len())
		}
		for i := range s1 {
			if s1[i].Entry != s2[i].Entry || s1[i].Value != s2[i].Value {
				t.Fatalf("non-deterministic ranking at %d", i)
			}
			if i > 0 && s1[i-1].Value < s1[i].Value {
				t.Fatalf("ranking not sorted at %d", i)
			}
			if i > 0 && s1[i-1].Value == s1[i].Value && s1[i-1].Entry.Name() >= s1[i].Entry.Name() {
				t.Fatalf("tied ranking not name-ordered at %d", i)
			}
		}
		sub := SubClaim{Sentence: sentence}
		e1, v1, tied1 := cat.Bind(seed, "fuzz", 0, 0, sub)
		e2, v2, tied2 := cat.Bind(seed, "fuzz", 0, 0, sub)
		if e1 == nil || e1 != e2 || v1 != v2 || tied1 != tied2 {
			t.Fatalf("non-deterministic bind")
		}
		if cat.Entry(e1.Name()) != e1 {
			t.Fatalf("bind returned a foreign entry %q", e1.Name())
		}
	})
}
