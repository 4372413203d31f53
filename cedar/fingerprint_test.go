package cedar

import (
	"testing"

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
