package cedar

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/claim"
	"repro/internal/sqldb"
)

// TestFingerprintFrozenSchema checks that dbFingerprint reads the column list
// AddTable froze: a column appended to a registered table's Columns, or a
// Column.Type edited in place, changes no answer, so it must not change the
// fingerprint either.
func TestFingerprintFrozenSchema(t *testing.T) {
	tab := sqldb.NewTable("t", "k")
	tab.MustAppendRow(sqldb.Int(1))
	db := sqldb.NewDatabase("d")
	db.AddTable(tab)
	before := dbFingerprint(db)
	tab.Columns = append(tab.Columns, sqldb.Column{Name: "extra", Type: sqldb.KindInt})
	tab.Columns[0].Type = sqldb.KindText
	if dbFingerprint(db) != before {
		t.Fatal("editing a registered table's Columns moved its database's fingerprint")
	}
}

// memoFixture is a System with a store and one document over a
// rows-by-six-column table, each cell distinct, and two claims whose memos
// the store will hold.
func memoFixture(t *testing.T, rows int) (*System, *sqldb.Database, []*Document) {
	t.Helper()
	sys, err := New(Options{Seed: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	db := sqldb.NewDatabase("wide")
	db.AddTable(wideTable(rows, -1))
	doc := &Document{ID: "d", Data: db}
	for i := range 2 {
		c, err := claim.New(fmt.Sprintf("c%d", i), fmt.Sprintf("Row %d holds %d.", i, i), fmt.Sprint(i), "")
		if err != nil {
			t.Fatal(err)
		}
		doc.Claims = append(doc.Claims, c)
	}
	return sys, db, []*Document{doc}
}

// wideTable is the fixture's table, with the cell at row changed when row
// is in range.
func wideTable(rows, changed int) *sqldb.Table {
	tab := sqldb.NewTable("t", "a", "b", "c", "d", "e", "f")
	for r := range rows {
		vals := make([]sqldb.Value, 6)
		for c := range vals {
			vals[c] = sqldb.Int(int64(r*6 + c))
		}
		if r == changed {
			vals[0] = sqldb.Int(-1)
		}
		tab.MustAppendRow(vals...)
	}
	return tab
}

// A memo pass keeps each database's fingerprint while its catalog holds the
// same tables; re-adding a table with one changed cell moves it, and the
// memos written under the old fingerprint no longer answer.
func TestMemoPassFingerprintFollowsCatalog(t *testing.T) {
	sys, db, docs := memoFixture(t, 50)
	sys.memoPass(docs)
	before := sys.prints[db].fp
	if before != dbFingerprint(db) {
		t.Fatal("the kept fingerprint is not the database's")
	}
	if hits, _ := sys.memoPass(docs); hits != 2 || sys.prints[db].fp != before {
		t.Fatalf("unchanged catalog: %d memo hits, fingerprint moved %t; want 2 hits, the same fingerprint", hits, sys.prints[db].fp != before)
	}
	db.AddTable(wideTable(50, 17))
	hits, _ := sys.memoPass(docs)
	if after := sys.prints[db].fp; after == before || after != dbFingerprint(db) {
		t.Errorf("one changed cell: fingerprint moved %t, matches the database %t; want both", after != before, after == dbFingerprint(db))
	}
	if hits != 0 {
		t.Errorf("%d memos written over the old table answered the changed one", hits)
	}
}

// A warm memo pass over an unchanged catalog does not digest its cells again:
// it allocates a small fraction of what the first pass did.
func TestMemoPassWarmAllocations(t *testing.T) {
	sys, _, docs := memoFixture(t, 4000)
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		sys.memoPass(docs)
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	first, second := mallocs(), mallocs()
	if second*20 > first {
		t.Errorf("warm pass made %d allocations, first pass %d; want under a twentieth", second, first)
	}
}
